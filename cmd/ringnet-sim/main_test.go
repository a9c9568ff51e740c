package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOutputGolden pins the simulator's full report, byte for byte, for
// three scenarios: steady state, lossy links with the membership
// protocol, and mobility with path reservation. Any change to protocol
// behavior, RNG consumption, or accounting shows up here. After an
// intentional change, regenerate a file with
//
//	go run ./cmd/ringnet-sim <args> > cmd/ringnet-sim/testdata/<name>.golden
//
// and say why in the change log.
func TestOutputGolden(t *testing.T) {
	for _, tc := range []struct{ name, args string }{
		{"steady", "-q -count 2000 -rate 500 -brs 4"},
		{"lossy-membership", "-q -count 500 -loss 0.02 -membership -seed 3"},
		{"mobility-reserve", "-q -count 500 -dwell 2s -reserve -seed 5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(strings.Fields(tc.args), &out); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("ringnet-sim %s output differs from testdata/%s.golden:\n--- got\n%s--- want\n%s",
					tc.args, tc.name, out.Bytes(), want)
			}
		})
	}
}
