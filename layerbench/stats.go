package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of ds, or 0
// for an empty sample.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the median of xs (mean of the middle two for an even
// count), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windows is how many consecutive slices a timed loop is cut into for the
// end-to-end figures: each figure is the median of its per-slice values, so
// host contention covering less than half of a run (steal-time bursts on a
// shared host) does not move it.
const windows = 10

// windowed applies f to each whole window of n consecutive operations of
// lat and returns the median; n = 0 cuts lat into the windows equal
// slices. With fewer samples than one window it applies f to all.
func windowed(lat []time.Duration, n int, f func([]time.Duration) float64) float64 {
	if n == 0 {
		n = len(lat) / windows
	}
	if n == 0 || len(lat) < n {
		return f(lat)
	}
	xs := make([]float64, 0, len(lat)/n)
	for i := 0; i+n <= len(lat); i += n {
		xs = append(xs, f(lat[i:i+n]))
	}
	return median(xs)
}

// windowedPercentileMS is the median over windows of the q-quantile, in ms.
func windowedPercentileMS(lat []time.Duration, n int, q float64) float64 {
	return windowed(lat, n, func(c []time.Duration) float64 { return ms(percentile(c, q)) })
}

// closedLoopRate is operations per second of busy time for one caller.
func closedLoopRate(lat []time.Duration) float64 {
	var busy time.Duration
	for _, d := range lat {
		busy += d
	}
	return float64(len(lat)) / busy.Seconds()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", f[1], err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// outputCheck holds reference answers, keyed by question, as JSON bytes, and
// holds program outputs to them byte for byte.
type outputCheck struct {
	want map[string][]byte
}

func newOutputCheck() *outputCheck { return &outputCheck{want: make(map[string][]byte)} }

// expect records the reference answer for key.
func (c *outputCheck) expect(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encode reference %s: %w", key, err)
	}
	c.want[key] = raw
	return nil
}

// verify reports whether got encodes to exactly the reference for key.
func (c *outputCheck) verify(key string, got any) error {
	want, ok := c.want[key]
	if !ok {
		return fmt.Errorf("no reference answer for %s", key)
	}
	raw, err := json.Marshal(got)
	if err != nil {
		return fmt.Errorf("encode output %s: %w", key, err)
	}
	if !bytes.Equal(raw, want) {
		return fmt.Errorf("output for %s differs from the serial reference", key)
	}
	return nil
}
