package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"dagsfc/internal/telemetry"
)

// scrape is one reading of the program's /metrics page in the Prometheus
// text format: sample values by series (name plus label set exactly as
// printed, e.g. `dagsfc_server_stage_seconds_sum{stage="embed"}`) and the
// families the page declared with a TYPE line.
type scrape struct {
	values   map[string]float64
	families map[string]bool
}

func parseProm(text string) (scrape, error) {
	s := scrape{values: map[string]float64{}, families: map[string]bool{}}
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if f := strings.Fields(line); len(f) >= 3 && f[1] == "TYPE" {
				s.families[f[2]] = true
			}
			continue
		}
		// The value is the last space-separated field; label values may
		// contain spaces, so split from the right.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return scrape{}, fmt.Errorf("metrics line %d: no value in %q", n+1, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return scrape{}, fmt.Errorf("metrics line %d: %v", n+1, err)
		}
		s.values[strings.TrimSpace(line[:i])] = v
	}
	return s, nil
}

// scrapeRegistry reads the process-wide registry the way GET /metrics
// renders it, for workloads that run no HTTP server.
func scrapeRegistry() (scrape, error) {
	var buf bytes.Buffer
	if err := telemetry.Default().Snapshot().WritePrometheus(&buf); err != nil {
		return scrape{}, err
	}
	return parseProm(buf.String())
}

// family strips the label set and a histogram's _sum/_count/_bucket
// suffix from a series identifier.
func family(series string) string {
	series = seriesName(series)
	for _, suf := range []string{"_sum", "_count", "_bucket"} {
		if strings.HasSuffix(series, suf) {
			return strings.TrimSuffix(series, suf)
		}
	}
	return series
}

// get returns a series' value. A series absent from a family the page
// does declare reads 0 (a label set not touched yet); an undeclared
// family is an error, so a renamed metric cannot silently read as zero.
func (s scrape) get(series string) (float64, error) {
	if v, ok := s.values[series]; ok {
		return v, nil
	}
	if s.families[seriesName(series)] || s.families[family(series)] {
		return 0, nil
	}
	return 0, fmt.Errorf("metrics: family %q not exposed", family(series))
}

// seriesName strips the label set from a series identifier.
func seriesName(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// promDelta is the change between two scrapes taken around a replay.
type promDelta struct{ before, after scrape }

// counter returns how much a counter series grew.
func (d promDelta) counter(series string) (float64, error) {
	a, err := d.after.get(series)
	if err != nil {
		return 0, err
	}
	b, _ := d.before.get(series) // a family first exposed mid-replay started at 0
	return a - b, nil
}

// lazyCounter is counter for families the program registers on first use
// (worker panics, repairs, evictions, journal overflow): not yet exposed
// means nothing happened.
func (d promDelta) lazyCounter(series string) float64 {
	v, err := d.counter(series)
	if err != nil {
		return 0
	}
	return v
}

// histMean returns the mean observation of a histogram series over the
// interval, from its _sum and _count deltas, and the count. labels is the
// printed label set (`{stage="embed"}`) or empty.
func (d promDelta) histMean(name, labels string) (mean float64, count float64, err error) {
	sum, err := d.counter(name + "_sum" + labels)
	if err != nil {
		return 0, 0, err
	}
	count, err = d.counter(name + "_count" + labels)
	if err != nil {
		return 0, 0, err
	}
	if count == 0 {
		return 0, 0, nil
	}
	return sum / count, count, nil
}
