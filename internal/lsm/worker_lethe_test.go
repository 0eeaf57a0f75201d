package lsm_test

import (
	"testing"

	"gadget/internal/lethe"
	"gadget/internal/lsm"
)

// TestWorkerLethe runs the worker scripts through the Lethe engine,
// which shares the LSM's worker under its own compaction picker.
func TestWorkerLethe(t *testing.T) {
	lsm.RunWorkerScripts(t, func(o lsm.Options) (*lsm.DB, error) {
		return lethe.Open(lethe.Options{LSM: o})
	})
}
