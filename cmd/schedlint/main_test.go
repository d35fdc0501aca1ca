package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// runDemo runs schedlint over the testdata/demo module and returns the
// exit code with the captured streams.
func runDemo(t *testing.T, args ...string) (int, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	t.Chdir(filepath.Join("testdata", "demo"))
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, &out, &errb
}

// TestJSONGolden locks the -json report byte-for-byte against the checked-in
// golden file, so the output schema CI archives cannot drift silently.
// Refresh from the repo root with:
//
//	go build -o /tmp/schedlint ./cmd/schedlint
//	(cd cmd/schedlint/testdata/demo && /tmp/schedlint -json > ../demo.golden.json)
func TestJSONGolden(t *testing.T) {
	code, out, errb := runDemo(t, "-json")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (the demo module has findings); stderr: %s", code, errb)
	}
	want, err := os.ReadFile(filepath.Join("..", "demo.golden.json"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-json output differs from golden:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

// TestJSONSchema checks the shape of every finding object: exactly the five
// documented fields with the right JSON types.
func TestJSONSchema(t *testing.T) {
	code, out, _ := runDemo(t, "-json")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	var findings []map[string]any
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("output is not a JSON array: %v", err)
	}
	if len(findings) == 0 {
		t.Fatalf("demo module should produce findings")
	}
	for i, f := range findings {
		if len(f) != 5 {
			t.Errorf("finding %d has %d fields, want 5: %v", i, len(f), f)
		}
		for _, key := range []string{"file", "check", "message"} {
			if _, ok := f[key].(string); !ok {
				t.Errorf("finding %d: %q should be a string: %v", i, key, f[key])
			}
		}
		for _, key := range []string{"line", "col"} {
			if _, ok := f[key].(float64); !ok {
				t.Errorf("finding %d: %q should be a number: %v", i, key, f[key])
			}
		}
	}
}

// TestOutFile checks that -out writes the same report to a file.
func TestOutFile(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "schedlint.json")
	code, out, errb := runDemo(t, "-json", "-out", outPath)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, errb)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("read -out file: %v", err)
	}
	if !bytes.Equal(data, out.Bytes()) {
		t.Errorf("-out file differs from stdout")
	}
	var findings []map[string]any
	if err := json.Unmarshal(data, &findings); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(findings) == 0 {
		t.Errorf("-out file holds no findings")
	}
}
