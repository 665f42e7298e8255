//go:build !race

package workloads

const raceEnabled = false
