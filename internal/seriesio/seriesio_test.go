package seriesio

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"unicode/utf8"

	"sprintcon/internal/sim"
)

func demoSeries() *sim.Series {
	return &sim.Series{
		DtS:       1,
		Time:      []float64{0, 1, 2},
		TotalW:    []float64{3000, 3100, 3200},
		CBW:       []float64{3000, 3050, 3100},
		UPSW:      []float64{0, 50, 100},
		PCbW:      []float64{math.NaN(), 3200, 3200},
		PBatchW:   []float64{1500, 1500, math.NaN()},
		FreqInter: []float64{1, 1, 1},
		FreqBatch: []float64{0.4, 0.5, 0.6},
		SoC:       []float64{1, 0.99, 0.98},
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, demoSeries()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // header + 3 ticks
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0] != "time_s" || len(rows[0]) != 9 {
		t.Fatalf("header = %v", rows[0])
	}
	// NaN cells are empty.
	if rows[1][4] != "" {
		t.Fatalf("NaN cell should be empty, got %q", rows[1][4])
	}
	if rows[2][4] != "3200.000" {
		t.Fatalf("pcb cell = %q", rows[2][4])
	}
}

func TestWriteJSON(t *testing.T) {
	s := demoSeries()
	s.PCbW = []float64{3200, 3200, 3200} // JSON cannot carry NaN
	s.PBatchW = []float64{1500, 1500, 1500}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded["Time"]; !ok {
		t.Fatal("JSON missing Time field")
	}
}

func TestSparkline(t *testing.T) {
	got := Sparkline([]float64{0, 1, 2, 3}, 4)
	if utf8.RuneCountInString(got) != 4 {
		t.Fatalf("sparkline %q has %d runes", got, utf8.RuneCountInString(got))
	}
	if !strings.HasPrefix(got, "▁") || !strings.HasSuffix(got, "█") {
		t.Fatalf("sparkline %q should rise from ▁ to █", got)
	}
	if Sparkline(nil, 10) != "" {
		t.Fatal("empty input should yield empty string")
	}
	if Sparkline([]float64{1}, 0) != "" {
		t.Fatal("zero width should yield empty string")
	}
	// Constant series renders the lowest tick everywhere.
	flat := Sparkline([]float64{5, 5, 5}, 3)
	if flat != "▁▁▁" {
		t.Fatalf("flat sparkline = %q", flat)
	}
	// NaN becomes a space.
	withNaN := Sparkline([]float64{math.NaN(), 1, 2}, 3)
	if !strings.HasPrefix(withNaN, " ") {
		t.Fatalf("NaN should render as space: %q", withNaN)
	}
}

func TestSparklineDownsamples(t *testing.T) {
	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i)
	}
	got := Sparkline(long, 50)
	if utf8.RuneCountInString(got) != 50 {
		t.Fatalf("downsampled width %d", utf8.RuneCountInString(got))
	}
}

func TestPlotRow(t *testing.T) {
	row := PlotRow("total", []float64{100, 200}, 10, "W")
	if !strings.Contains(row, "total") || !strings.Contains(row, "[100.00, 200.00] W") {
		t.Fatalf("PlotRow = %q", row)
	}
	empty := PlotRow("x", []float64{math.NaN()}, 10, "W")
	if !strings.Contains(empty, "no data") {
		t.Fatalf("all-NaN PlotRow = %q", empty)
	}
}

func TestPoolMeanPooling(t *testing.T) {
	out := pool([]float64{1, 3, 5, 7}, 2)
	if len(out) != 2 || out[0] != 2 || out[1] != 6 {
		t.Fatalf("pool = %v", out)
	}
	// Shorter than width: copied through.
	out = pool([]float64{1, 2}, 5)
	if len(out) != 2 {
		t.Fatalf("short pool = %v", out)
	}
	// All-NaN bucket stays NaN.
	out = pool([]float64{math.NaN(), math.NaN(), 4, 4}, 2)
	if !math.IsNaN(out[0]) || out[1] != 4 {
		t.Fatalf("NaN pool = %v", out)
	}
}
