//go:build race

package cache_test

const raceEnabled = true
