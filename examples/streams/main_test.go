package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden from this run instead of comparing")

// TestStdoutGolden runs the example and compares everything it prints
// with testdata/stdout.golden. The example runs in virtual time, so its
// output repeats byte for byte, at any GOMAXPROCS.
func TestStdoutGolden(t *testing.T) {
	const golden = "testdata/stdout.golden"
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	main()
	os.Stdout = stdout
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (go test -args -update writes it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout differs from %s (go test -args -update rewrites it)\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
