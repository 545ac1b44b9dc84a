package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Flags that describe no world are refused before anything is built or
// written, by an error that names the flag: a scale that is not a finite
// number > 0, and a window outside the 850-day timeline.
func TestRunRefusesFlagsThatDescribeNoWorld(t *testing.T) {
	for i, tc := range []struct {
		flag     string
		scale    float64
		from, to int
	}{
		{"-scale", 0, 800, 805},
		{"-scale", -1, 800, 805},
		{"-scale", math.NaN(), 800, 805},
		{"-scale", math.Inf(1), 800, 805},
		{"-scale", math.Inf(-1), 800, 805},
		{"-from", 0.05, -5, 1},
		{"-from", 0.05, 850, 851},
		{"-to", 0.05, 849, 900},
		{"-to", 0.05, 0, 851},
		{"-to", 0.05, 805, 805},
		{"-to", 0.05, 805, 800},
	} {
		out := filepath.Join(t.TempDir(), "archives")
		err := run(out, tc.scale, 42, tc.from, tc.to)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("case %d (-scale %v -from %d -to %d): %v; want %s refused", i, tc.scale, tc.from, tc.to, err, tc.flag)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("case %d: the refused run created %s", i, out)
		}
	}
}
