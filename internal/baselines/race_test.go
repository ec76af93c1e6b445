//go:build race

package baselines_test

func init() { raceEnabled = true }
