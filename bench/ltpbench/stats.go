package main

import (
	"crypto/sha256"
	"encoding/hex"
)

// tieBand is the relative cycle-CPI difference below which two cells
// count as tied: the model is not charged for ordering a tie either way.
const tieBand = 0.02

// rankCell is one sweep cell as the rank-inversion count sees it.
type rankCell struct {
	group string  // cells are only compared within one scenario
	ref   float64 // reference (cycle) CPI
	est   float64 // estimated (model) CPI
}

// inversions counts same-group cell pairs whose reference CPIs differ
// by more than tieBand and which the estimate orders the other way.
func inversions(cells []rankCell) int {
	n := 0
	for i := range cells {
		for j := i + 1; j < len(cells); j++ {
			a, b := cells[i], cells[j]
			if a.group != b.group {
				continue
			}
			if a.ref > b.ref {
				a, b = b, a
			}
			if b.ref > a.ref*(1+tieBand) && a.est > b.est {
				n++
			}
		}
	}
	return n
}

// digest returns the hex SHA-256 of parts written in order.
func digest(parts [][]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
