//go:build !race

package expsvc

const raceEnabled = false
