//go:build race

package encoder_test

func init() { raceEnabled = true }
