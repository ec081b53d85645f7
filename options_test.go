package ap1000plus

import (
	"strings"
	"testing"
)

// TestNewValidation is the construction-validation table: every bad
// geometry, size, or option conflict must fail in New with a
// diagnosable message — never build a half-working machine.
func TestNewValidation(t *testing.T) {
	plan := mustPlan(t, "drop=0.01,seed=1")
	cases := []struct {
		name    string
		opts    []Option
		wantErr string // substring of the error; "" means success
	}{
		{"grid 2x2", []Option{WithGrid(2, 2)}, ""},
		{"cells 64", []Option{WithCells(64)}, ""},
		{"cells max", []Option{WithCells(4096)}, ""},
		{"no geometry", nil, "no geometry"},
		{"observe without geometry", []Option{WithObserve()}, "no geometry"},
		{"grid too small", []Option{WithGrid(1, 2)}, "outside the simulator range"},
		{"grid too large", []Option{WithGrid(128, 64)}, "outside the simulator range"},
		{"grid zero dim", []Option{WithGrid(0, 8)}, "non-positive dimensions"},
		{"cells too many", []Option{WithCells(8192)}, "outside [4,4096]"},
		{"cells too few", []Option{WithCells(2)}, "outside [4,4096]"},
		{"geometry twice", []Option{WithGrid(2, 2), WithCells(16)}, "geometry set twice"},
		{"geometry twice grid", []Option{WithGrid(2, 2), WithGrid(4, 4)}, "geometry set twice"},
		{"negative memory", []Option{WithGrid(2, 2), WithMemoryPerCell(-1)}, "memory per cell"},
		{"zero memory", []Option{WithGrid(2, 2), WithMemoryPerCell(0)}, "memory per cell"},
		{"zero queue", []Option{WithGrid(2, 2), WithQueueWords(0)}, "queue words"},
		{"queue below a command", []Option{WithGrid(2, 2), WithQueueWords(2)}, "below one"},
		{"queue of part commands", []Option{WithGrid(2, 2), WithQueueWords(19)}, "power-of-two"},
		{"queue of 3 commands", []Option{WithGrid(2, 2), WithQueueWords(24)}, "power-of-two"},
		{"queue of 5 commands", []Option{WithGrid(2, 2), WithQueueWords(40)}, "power-of-two"},
		{"ablation queue sizes ok", []Option{WithGrid(2, 2), WithQueueWords(1024)}, ""},
		{"empty trace name", []Option{WithGrid(2, 2), WithTrace("")}, "trace application name"},
		{"nil timeline", []Option{WithGrid(2, 2), WithTimeline(nil)}, "WithTimeline(nil)"},
		{"nil fault plan", []Option{WithGrid(2, 2), WithFault(nil)}, "WithFault(nil)"},
		{"zero workers", []Option{WithGrid(2, 2), WithDeliveryWorkers(0)}, "delivery workers"},
		{"ring knobs ok", []Option{WithGrid(2, 2), WithDeliveryWorkers(2)}, ""},
		{"partitions + combining ok", []Option{WithGrid(2, 2), WithPartitions(2), WithCombining()}, ""},
		{"fault + sanitize + combining ok", []Option{WithGrid(2, 2), WithFault(plan), WithSanitize(), WithCombining()}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.opts...)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				if m == nil {
					t.Fatal("New returned nil machine without error")
				}
				return
			}
			if err == nil {
				t.Fatalf("New accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestNewDefaults checks the documented defaults: paper-grid memory
// and queues, ring wire, no checking layers — by building the minimal
// machine and running a trivial SPMD program on it.
func TestNewDefaults(t *testing.T) {
	m, err := New(WithCells(4))
	if err != nil {
		t.Fatal(err)
	}
	if m.Cells() != 4 {
		t.Fatalf("Cells = %d, want 4", m.Cells())
	}
	if w, h := m.Torus().Width(), m.Torus().Height(); w*h != 4 {
		t.Fatalf("torus %dx%d, want 4 cells", w, h)
	}
	if err := m.Run(func(c *Cell) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
