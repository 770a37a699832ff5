package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fixture is a module whose dead code shares names with live code, hides
// behind a dead caller, or sits in a field nothing reads, beside live code
// that only interfaces and map keys reach.
var fixture = map[string]string{
	"go.mod": "module fixture\n\ngo 1.22\n",
	"api.go": `package fixture

import (
	"errors"
	"net/http"

	"fixture/internal/work"
)

// Start is the public API: the scan's root.
func Start(w http.ResponseWriter) int {
	var r work.Runner
	seen := map[work.Key]int{{A: "a"}: 1}
	_ = work.Idle{}
	_ = errors.Is(work.Check(), work.ErrQuota)
	_ = work.Wrap(w)
	return r.Run(seen[work.Key{}]) + work.Total(work.NewBox())
}
`,
	"internal/work/work.go": `package work

import (
	"errors"
	"net/http"
)

type Runner struct{ n int }

func (r *Runner) Run(n int) int { r.n += n; return r.n }

// Idle is live, its Run is not: nothing calls it, whatever the name.
type Idle struct{}

func (Idle) Run(n int) int { return helper(n) }

func helper(n int) int { return n }

// Key is a map key: the map reads its fields.
type Key struct{ A, b string }

type Box struct{ used, unused int }

func NewBox() *Box {
	b := &Box{used: 1}
	b.unused = 2
	return b
}

func Total(b *Box) int { return b.used }

var ErrQuota = errors.New("quota")

// QuotaError.Is is reached only through errors.Is.
type QuotaError struct{ msg string }

func (e *QuotaError) Error() string        { return e.msg }
func (e *QuotaError) Is(target error) bool { return target == ErrQuota }

func Check() error { return &QuotaError{msg: "over"} }

// recorder.Header is reached only through http.ResponseWriter.
type recorder struct{ h http.Header }

func (r *recorder) Header() http.Header         { return r.h }
func (r *recorder) Write(b []byte) (int, error) { return len(b), nil }
func (r *recorder) WriteHeader(int)             {}

func Wrap(w http.ResponseWriter) http.ResponseWriter { return &recorder{h: w.Header()} }
`,
}

func TestScanFindsDeadCodeByObject(t *testing.T) {
	dir := t.TempDir()
	for name, src := range fixture {
		if err := os.MkdirAll(filepath.Join(dir, filepath.Dir(name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err := load(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range p.findings(nil) {
		got = append(got, strings.Join(f, " "))
	}
	sort.Strings(got)
	want := []string{
		"field internal/work/work.go:22 work.Box.unused",
		"func internal/work/work.go:15 work.Idle.Run",
		"func internal/work/work.go:17 work.helper",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("report:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
