//go:build race

package service

// raceEnabled reports that this test binary runs under the race
// detector, whose shadow state and pool shedding make heap measurements
// meaningless; the retained-heap bound skips.
const raceEnabled = true
