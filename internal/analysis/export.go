package analysis

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"bgpblackholing/internal/core"
)

// The CSV exporters write the figure series in plottable form, so the
// reproduced evaluation can be graphed next to the paper's figures with
// any plotting tool.

// WriteFigure4CSV exports the daily longitudinal series.
func WriteFigure4CSV(w io.Writer, series []DailyPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"day", "providers", "users", "prefixes"}); err != nil {
		return err
	}
	for _, p := range series {
		if err := cw.Write([]string{
			p.Day.Format("2006-01-02"),
			strconv.Itoa(p.Providers), strconv.Itoa(p.Users), strconv.Itoa(p.Prefixes),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCDFCSV exports an empirical CDF as (value, fraction) pairs.
func WriteCDFCSV(w io.Writer, label string, c *CDF) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{label, "cdf"}); err != nil {
		return err
	}
	n := c.Len()
	for i := 0; i < n; i++ {
		q := float64(i+1) / float64(n)
		if err := cw.Write([]string{
			fmt.Sprintf("%g", c.Quantile(float64(i)/float64(n))),
			fmt.Sprintf("%.6f", q),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteHistogramCSV exports a histogram as (bin, count, fraction) rows.
func WriteHistogramCSV(w io.Writer, label string, h *Histogram) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{label, "count", "fraction"}); err != nil {
		return err
	}
	for _, k := range h.Keys() {
		if err := cw.Write([]string{
			strconv.Itoa(k), strconv.Itoa(h.Bins[k]),
			fmt.Sprintf("%.6f", h.Fraction(k)),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteDurationsCSV exports both Figure 8 duration distributions.
func WriteDurationsCSV(w io.Writer, ungrouped, grouped []time.Duration) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"kind", "seconds"}); err != nil {
		return err
	}
	write := func(kind string, ds []time.Duration) error {
		sorted := append([]time.Duration(nil), ds...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, d := range sorted {
			if err := cw.Write([]string{kind, fmt.Sprintf("%.0f", d.Seconds())}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := write("ungrouped", ungrouped); err != nil {
		return err
	}
	if err := write("grouped", grouped); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// WriteEventsCSV exports closed events in the schema of bhreport -csv's
// events.csv — one row per event with provider and user counts
// (n_providers, n_users), not bhdetect's CSV, which lists the
// providers, users, communities and platforms themselves.
func WriteEventsCSV(w io.Writer, events []*core.Event) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"prefix", "start", "end", "duration_sec", "n_providers", "n_users", "detections", "start_unknown"}); err != nil {
		return err
	}
	for _, ev := range events {
		if err := cw.Write([]string{
			ev.Prefix.String(),
			ev.Start.UTC().Format(time.RFC3339),
			ev.End.UTC().Format(time.RFC3339),
			fmt.Sprintf("%.0f", ev.Duration().Seconds()),
			strconv.Itoa(len(ev.Providers)),
			strconv.Itoa(len(ev.Users)),
			strconv.Itoa(ev.Detections),
			strconv.FormatBool(ev.StartUnknown),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
