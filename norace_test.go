//go:build !race

package uhm

const raceEnabled = false
