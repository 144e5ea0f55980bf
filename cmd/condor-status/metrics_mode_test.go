package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"condor/internal/telemetry"
)

// TestMetricsModeGolden pins the -metrics rendering over a recorded
// coordinator page (the coordinator and policy families of a live
// three-station pool that ran one job). The golden file was rendered by
// the private parser this mode used to carry.
func TestMetricsModeGolden(t *testing.T) {
	in, err := os.Open("testdata/coordinator_page.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	page, err := telemetry.ParseText(in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/coordinator_page.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	printScraped(&got, page)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("rendering changed\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}

// TestMetricsModeKeepsLabelEscapes: a label value comes back out spelled
// as the page spelled it, escapes included.
func TestMetricsModeKeepsLabelEscapes(t *testing.T) {
	const series = `x_total{path="C:\\dir",say="\"hi\"\n"}`
	page, err := telemetry.ParseTextString("# TYPE x_total counter\n" + series + " 7\n")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	printScraped(&got, page)
	if !strings.Contains(got.String(), series) {
		t.Fatalf("series %s not rendered verbatim:\n%s", series, got.String())
	}
}
