package main

import (
	"strings"
	"testing"
)

// TestCheckMigspeedFlags pins migspeed's up-front flag check: a run
// needs at least one page per request and one round trip, and each
// refusal names the flag.
func TestCheckMigspeedFlags(t *testing.T) {
	for _, tc := range []struct {
		pages, loops int
		want         string // "" = accepted, else a substring of the error
	}{
		{256, 16, ""},
		{1, 1, ""},
		{0, 16, "-pages 0 must be at least 1"},
		{-4, 16, "-pages -4"},
		{16, 0, "-loops 0 must be at least 1"},
		{16, -1, "-loops -1"},
	} {
		err := checkMigspeedFlags(tc.pages, tc.loops)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("checkMigspeedFlags(%d, %d) = %v, want accepted", tc.pages, tc.loops, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("checkMigspeedFlags(%d, %d) = %v, want an error containing %q", tc.pages, tc.loops, err, tc.want)
		}
	}
}
