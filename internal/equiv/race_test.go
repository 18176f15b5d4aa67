//go:build race

package equiv

const raceEnabled = true
