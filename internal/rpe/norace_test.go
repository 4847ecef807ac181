//go:build !race

package rpe

const raceEnabled = false
