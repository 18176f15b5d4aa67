//go:build !race

package equiv

const raceEnabled = false
