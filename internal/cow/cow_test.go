package cow

import (
	"slices"
	"sync"
	"testing"
)

func values(a *Array[int]) []int {
	out := make([]int, a.Len())
	for i := range out {
		out[i] = a.At(i)
	}
	return out
}

func TestArrayCloneIsolation(t *testing.T) {
	a := Make[int](3*chunkSize + 5)
	for i := 0; i < a.Len(); i++ {
		a.Set(i, i)
	}
	want := values(&a)
	c := a.Clone()
	c.Set(7, -1)
	c.Append(-2)
	if got := values(&a); !slices.Equal(got, want) {
		t.Fatal("clone writes reached the source")
	}
	cWant := values(&c)
	a.Set(chunkSize+1, -3)
	a.Append(-4)
	if got := values(&c); !slices.Equal(got, cWant) {
		t.Fatal("source writes reached the clone")
	}
	if a.At(chunkSize+1) != -3 || a.At(a.Len()-1) != -4 || c.At(7) != -1 || c.At(c.Len()-1) != -2 {
		t.Fatal("writes lost")
	}
}

func TestArrayWritesInPlaceUntilCloned(t *testing.T) {
	var a Array[int]
	for i := 0; i < 2*chunkSize; i++ {
		a.Append(i)
	}
	first := a.chunks[0]
	a.Set(1, 10)
	if a.chunks[0] != first {
		t.Fatal("an owned chunk was copied")
	}
	_ = a.Clone()
	a.Set(1, 11)
	if a.chunks[0] == first {
		t.Fatal("a shared chunk was written in place")
	}
	copied := a.chunks[0]
	a.Set(2, 12)
	if a.chunks[0] != copied {
		t.Fatal("the writer's own copy was copied again")
	}
}

func TestRowsInsertRemove(t *testing.T) {
	r := MakeRows[int32](chunkSize + 1)
	for _, e := range []int32{5, 1, 3, 3} {
		r.Insert(chunkSize, e)
	}
	if got := r.At(chunkSize); !slices.Equal(got, []int32{1, 3, 5}) {
		t.Fatalf("row = %v", got)
	}
	c := r.Clone()
	shared := c.At(chunkSize)
	if !c.Remove(chunkSize, 3) || c.Remove(chunkSize, 4) || !c.Insert(chunkSize, 2) {
		t.Fatal("Insert/Remove reported wrong presence")
	}
	if got := c.At(chunkSize); !slices.Equal(got, []int32{1, 2, 5}) {
		t.Fatalf("clone row = %v", got)
	}
	if !slices.Equal(shared, []int32{1, 3, 5}) || !slices.Equal(r.At(chunkSize), []int32{1, 3, 5}) {
		t.Fatal("editing the clone's row rewrote the shared backing array")
	}
	if !r.Contains(chunkSize, 3) || r.Contains(chunkSize, 2) {
		t.Fatal("Contains disagrees with the row")
	}
}

// TestCloneRaceFree clones and reads a published array from many goroutines
// while each goroutine mutates its own clone (run under -race).
func TestCloneRaceFree(t *testing.T) {
	pub := MakeRows[int32](4 * chunkSize)
	for i := 0; i < pub.Len(); i++ {
		pub.Insert(i, int32(i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				c := pub.Clone()
				for i := w; i < c.Len(); i += 7 {
					c.Insert(i, -1)
					c.Remove(i, int32(i))
					if got := pub.At(i); len(got) != 1 || got[0] != int32(i) {
						t.Errorf("published row %d = %v", i, got)
						return
					}
				}
				c.Append()
			}
		}(w)
	}
	wg.Wait()
}
