package main

// Pure measurement helpers: order statistics, span self time, growth
// slopes and /proc parsing. They take plain values so the tests can
// pin them on fixed inputs.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile is the nearest-rank percentile of xs (p in (0,100]): the
// smallest sample with at least p% of the samples at or below it. It
// returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle sample, or the mean of the two middle samples.
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

// mean is the arithmetic mean, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// interval is a closed span of wall time.
type interval struct{ start, end time.Time }

// selfTime is the part of parent not covered by any child interval:
// the parent's duration minus the union of its children clipped to it.
// Overlapping children are counted once.
func selfTime(parent interval, children []interval) time.Duration {
	var cs []interval
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start.Before(cs[j].start) })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			covered += cur.end.Sub(cur.start)
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return parent.end.Sub(parent.start) - covered
}

// logLogSlope is the least-squares slope of log(y) against log(x): the
// growth exponent k in y ∝ x^k. It needs two or more points with
// positive coordinates and at least two distinct x.
func logLogSlope(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, fmt.Errorf("slope needs two or more paired points, got %d x and %d y", len(xs), len(ys))
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(xs))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return 0, fmt.Errorf("slope point %d (%g, %g) is not positive", i, xs[i], ys[i])
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, fmt.Errorf("slope points share one x")
	}
	return (n*sxy - sx*sy) / den, nil
}

// clockTicks is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat. It is 100 on every Linux ABI Go supports.
const clockTicks = 100

// parseProcStatCPU returns utime+stime from the text of /proc/<pid>/stat.
// The command name (field 2) may hold spaces and parentheses, so fields
// are counted after its last ')'.
func parseProcStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	// After ") " come field 3 (state) onward; utime and stime are
	// fields 14 and 15, so indices 11 and 12 here.
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	ut, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %v", err)
	}
	st, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %v", err)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// parseProcStatusKB returns the value of a "Name:  N kB" line of
// /proc/<pid>/status, in kB.
func parseProcStatusKB(status, name string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, name+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status %s: malformed %q", name, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", name)
}
