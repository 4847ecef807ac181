package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dkindex"
)

const doc = `<?xml version="1.0"?>
<movieDB>
  <director id="d1"><name/><movie id="m1"><title/></movie></director>
  <director id="d2"><name/><movie id="m2"><title/></movie></director>
  <actor id="a1" movieref="m1 m2"><name/></actor>
</movieDB>
`

func newTestServer(t *testing.T) (*httptest.Server, *dkindex.Index) {
	t.Helper()
	idx, err := dkindex.LoadXMLString(doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx.SetRequirements(map[string]int{"title": 2})
	ts := httptest.NewServer(New(idx))
	t.Cleanup(ts.Close)
	return ts, idx
}

func get(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func post(t *testing.T, url, contentType, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestHealthAndStats(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts.URL+"/healthz")
	if code != 200 || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, body)
	}
	code, body = get(t, ts.URL+"/stats")
	if code != 200 {
		t.Fatalf("stats = %d", code)
	}
	if body["dataNodes"].(float64) == 0 || body["indexNodes"].(float64) == 0 {
		t.Errorf("stats empty: %v", body)
	}
}

func TestQueryEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts.URL+"/query?path=director.movie.title")
	if code != 200 {
		t.Fatalf("path query = %d %v", code, body)
	}
	if body["count"].(float64) != 2 {
		t.Errorf("count = %v, want 2", body["count"])
	}
	results := body["results"].([]any)
	if len(results) != 2 || results[0].(map[string]any)["label"] != "title" {
		t.Errorf("results = %v", results)
	}

	code, body = get(t, ts.URL+"/query?rpe=movieDB//name")
	if code != 200 || body["count"].(float64) != 3 {
		t.Errorf("rpe query = %d %v", code, body)
	}

	code, body = get(t, ts.URL+"/query?twig=movie[title]")
	if code != 200 || body["count"].(float64) != 2 {
		t.Errorf("twig query = %d %v", code, body)
	}

	code, _ = get(t, ts.URL+"/query")
	if code != 400 {
		t.Errorf("missing query param = %d, want 400", code)
	}
	code, _ = get(t, ts.URL+"/query?rpe=((")
	if code != 400 {
		t.Errorf("bad rpe = %d, want 400", code)
	}
}

// An expression over the evaluator's size bound is refused as too_large, on
// the legacy and /v1 routes and in place within a batch.
func TestQueryTooLarge(t *testing.T) {
	ts, _ := newTestServer(t)
	long := strings.Repeat("_.", 2000) + "_"
	for _, url := range []string{ts.URL + "/query?rpe=" + long, ts.URL + "/v1/query?kind=rpe&q=" + long} {
		code, body := get(t, url)
		if code != http.StatusRequestEntityTooLarge || body["code"] != "too_large" {
			t.Errorf("%.40s...: %d %v, want 413 too_large", url, code, body["code"])
		}
	}
	code, body := post(t, ts.URL+"/v1/query", "application/json",
		`{"queries":[{"kind":"rpe","q":"movieDB//name"},{"kind":"rpe","q":"`+long+`"},{"kind":"rpe","q":"(("}]}`)
	if code != 200 {
		t.Fatalf("batch = %d %v", code, body)
	}
	items := body["results"].([]any)
	if c := items[0].(map[string]any)["count"]; c != 3.0 {
		t.Errorf("batch item 0 count = %v, want 3", c)
	}
	for i, want := range []string{1: "too_large", 2: "bad_query"} {
		if i > 0 && items[i].(map[string]any)["code"] != want {
			t.Errorf("batch item %d = %v, want code %s", i, items[i], want)
		}
	}
}

func TestQueryLimit(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts.URL+"/query?path=director.movie.title&limit=1")
	if code != 200 {
		t.Fatalf("limited query = %d %v", code, body)
	}
	if body["count"].(float64) != 2 {
		t.Errorf("count = %v, want full result size 2", body["count"])
	}
	if n := len(body["results"].([]any)); n != 1 {
		t.Errorf("listed %d results, want 1", n)
	}

	code, body = get(t, ts.URL+"/query?path=director.movie.title&limit=0")
	if code != 200 || len(body["results"].([]any)) != 0 {
		t.Errorf("limit=0 = %d %v, want 200 with empty results", code, body)
	}
	if body["count"].(float64) != 2 {
		t.Errorf("limit=0 count = %v, want 2", body["count"])
	}

	// Limits beyond the result size are harmless; the cap only trims listing.
	code, body = get(t, ts.URL+"/query?path=director.movie.title&limit=99999")
	if code != 200 || len(body["results"].([]any)) != 2 {
		t.Errorf("huge limit = %d %v, want both results", code, body)
	}

	for _, bad := range []string{"x", "-1", "1.5"} {
		code, _ = get(t, ts.URL+"/query?path=director.movie.title&limit="+bad)
		if code != 400 {
			t.Errorf("limit=%s = %d, want 400", bad, code)
		}
	}
}

func TestEdgeAndDocumentUpdates(t *testing.T) {
	ts, idx := newTestServer(t)
	// Find an actor and a movie.
	actors, _, err := idx.Query("actor")
	if err != nil {
		t.Fatal(err)
	}
	movies, _, err := idx.Query("director.movie")
	if err != nil {
		t.Fatal(err)
	}
	code, body := post(t, ts.URL+"/edges", "application/json",
		fmt.Sprintf(`{"from":%d,"to":%d}`, movies[0], actors[0]))
	if code != 200 {
		t.Fatalf("add edge = %d %v", code, body)
	}
	code, _ = post(t, ts.URL+"/edges/remove", "application/json",
		fmt.Sprintf(`{"from":%d,"to":%d}`, movies[0], actors[0]))
	if code != 200 {
		t.Fatalf("remove edge = %d", code)
	}
	code, _ = post(t, ts.URL+"/edges", "application/json", `{"from":-5,"to":0}`)
	if code != 400 {
		t.Errorf("bad edge = %d, want 400", code)
	}
	code, _ = post(t, ts.URL+"/edges", "application/json", `{"garbage":`)
	if code != 400 {
		t.Errorf("bad json = %d, want 400", code)
	}

	code, body = post(t, ts.URL+"/documents", "application/xml",
		`<movieDB><director><movie><title/></movie></director></movieDB>`)
	if code != 200 {
		t.Fatalf("add document = %d %v", code, body)
	}
	code, body = get(t, ts.URL+"/query?path=director.movie.title")
	if body["count"].(float64) != 3 {
		t.Errorf("count after insert = %v, want 3", body["count"])
	}
	code, _ = post(t, ts.URL+"/documents", "application/xml", `<broken`)
	if code != 400 {
		t.Errorf("bad document = %d, want 400", code)
	}
}

func TestPromoteDemoteOptimize(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := post(t, ts.URL+"/promote", "application/json", `{"label":"name","k":2}`)
	if code != 200 {
		t.Fatalf("promote = %d %v", code, body)
	}
	code, _ = post(t, ts.URL+"/promote", "application/json", `{"label":"nosuch","k":2}`)
	if code != 400 {
		t.Errorf("promote unknown label = %d, want 400", code)
	}
	code, _ = post(t, ts.URL+"/promote", "application/json", `{"label":"name","k":999}`)
	if code != 400 {
		t.Errorf("promote huge k = %d, want 400", code)
	}
	code, _ = post(t, ts.URL+"/demote", "application/json", `{"reqs":{"title":1}}`)
	if code != 200 {
		t.Errorf("demote = %d", code)
	}

	// Optimize requires observed load; queries above went through /query so
	// the recorder has entries only for path= calls.
	get(t, ts.URL+"/query?path=director.movie.title")
	get(t, ts.URL+"/query?path=director.movie.title")
	code, body = post(t, ts.URL+"/optimize", "application/json", `{"budget":0}`)
	if code != 200 {
		t.Fatalf("optimize = %d %v", code, body)
	}
	if body["requirements"] == nil {
		t.Error("optimize returned no requirements")
	}
	// Recorder drained: immediate re-optimize conflicts.
	code, _ = post(t, ts.URL+"/optimize", "application/json", `{"budget":0}`)
	if code != 409 {
		t.Errorf("re-optimize = %d, want 409", code)
	}
}

func TestConcurrentQueriesAndUpdates(t *testing.T) {
	ts, idx := newTestServer(t)
	movies, _, err := idx.Query("director.movie")
	if err != nil {
		t.Fatal(err)
	}
	names, _, err := idx.Query("director.name")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				switch i % 5 {
				case 0:
					resp, err := http.Get(ts.URL + "/query?path=director.movie.title")
					if err == nil {
						resp.Body.Close()
					}
				case 1:
					resp, err := http.Get(ts.URL + "/query?twig=director[name].movie")
					if err == nil {
						resp.Body.Close()
					}
				case 2:
					body := fmt.Sprintf(`{"from":%d,"to":%d}`, movies[j%len(movies)], names[j%len(names)])
					resp, err := http.Post(ts.URL+"/edges", "application/json", strings.NewReader(body))
					if err == nil {
						resp.Body.Close()
					}
				case 3:
					resp, err := http.Get(ts.URL + "/query?rpe=movieDB//name&limit=1")
					if err == nil {
						resp.Body.Close()
					}
				case 4:
					doc := `<movieDB><actor><name/></actor></movieDB>`
					resp, err := http.Post(ts.URL+"/documents", "application/xml", strings.NewReader(doc))
					if err == nil {
						resp.Body.Close()
					}
				}
			}
		}(i)
	}
	wg.Wait()
	// Index still structurally sound after the storm.
	if err := idx.IG().Validate(); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, ts.URL+"/query?path=director.movie.title")
	if code != 200 || body["count"].(float64) != 2 {
		t.Errorf("post-storm query = %d %v", code, body)
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts.URL+"/explain?path=director.movie.title")
	if code != 200 {
		t.Fatalf("explain = %d %v", code, body)
	}
	if body["Results"].(float64) != 2 {
		t.Errorf("Results = %v, want 2", body["Results"])
	}
	if body["Matched"] == nil {
		t.Error("Matched missing")
	}
	code, _ = get(t, ts.URL+"/explain")
	if code != 400 {
		t.Errorf("missing path = %d, want 400", code)
	}
}
