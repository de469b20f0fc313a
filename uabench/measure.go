package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/types"
)

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between the closest ranks; xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setupRepeated builds the workload environment n times and keeps the last
// one. Each build is timed together with the runtime.GC that follows it,
// after the previous environment was dropped and collected untimed, so
// every repetition starts from the same heap. build is told whether its
// environment is the one kept, and returns the time it spent on checks,
// which is left out of the set-up time. It returns the median build time
// in seconds.
func setupRepeated[T any](n int, build func(keep bool) (T, time.Duration, error), release func(T)) (T, float64, error) {
	var env T
	var have bool
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if have {
			release(env)
			var zero T
			env, have = zero, false
			runtime.GC()
		}
		t0 := time.Now()
		e, checks, err := build(i == n-1)
		if err != nil {
			return env, 0, fmt.Errorf("set-up: %w", err)
		}
		runtime.GC()
		times = append(times, (time.Since(t0) - checks).Seconds())
		env, have = e, true
	}
	return env, percentile(times, 0.5), nil
}

// runtimeSample is a snapshot of the Go runtime counters the per-layer
// metrics are derived from.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes float64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: float64(s[2].Value.Uint64()),
	}
}

// heapLiveMB reports the heap bytes marked live by the last GC.
func heapLiveMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// procField reads one "Key: value" line of a /proc/self file as a number.
func procField(path, key string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}

// peakRSSMB reports the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	kb, err := procField("/proc/self/status", "VmHWM")
	return kb / 1024, err
}

// ioChars reports the bytes this process has read and written through
// read/write system calls so far (rchar, wchar).
func ioChars() (rchar, wchar float64, err error) {
	if rchar, err = procField("/proc/self/io", "rchar"); err != nil {
		return 0, 0, err
	}
	wchar, err = procField("/proc/self/io", "wchar")
	return rchar, wchar, err
}

// appendValue appends v's canonical, bit-exact encoding: the kind, then the
// payload bits. Two values encode alike only when they have the same kind
// and payload, so -0 and +0, or 1 and 1.0, differ.
func appendValue(b []byte, v types.Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case types.KindInt:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.Int()))
	case types.KindFloat:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case types.KindString:
		b = binary.AppendUvarint(b, uint64(len(v.Str())))
		b = append(b, v.Str()...)
	case types.KindBool:
		if v.Bool() {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// valueHasher feeds values into a hash in their canonical encoding.
type valueHasher struct {
	h   hash.Hash64
	buf []byte
}

func newValueHasher() *valueHasher { return &valueHasher{h: fnv.New64a()} }

func (vh *valueHasher) add(v types.Value) {
	vh.buf = appendValue(vh.buf[:0], v)
	vh.h.Write(vh.buf)
}

// digestCells is the ordered digest of an n-row, k-column result whose
// cells cell(i, j) yields.
func digestCells(n, k int, cell func(i, j int) types.Value) uint64 {
	vh := newValueHasher()
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[:8], uint64(n))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(k))
	vh.h.Write(hdr[:])
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			vh.add(cell(i, j))
		}
	}
	return vh.h.Sum64()
}

// digestRows is the ordered digest of boxed rows.
func digestRows(rows [][]types.Value, k int) uint64 {
	return digestCells(len(rows), k, func(i, j int) types.Value { return rows[i][j] })
}

// fingerprint hashes every table of the given catalogs — names, schemas and
// rows in storage order — into one hex string, so two runs can tell
// whether they measured the same inputs.
func fingerprint(cats ...*engine.Catalog) string {
	vh := newValueHasher()
	for _, cat := range cats {
		names := cat.Names()
		sort.Strings(names)
		for _, name := range names {
			t := cat.Get(name)
			vh.h.Write([]byte(name + "(" + strings.Join(t.Schema.Attrs, ",") + ")"))
			var n [8]byte
			binary.LittleEndian.PutUint64(n[:], uint64(len(t.Rows)))
			vh.h.Write(n[:])
			for _, row := range t.Rows {
				for _, v := range row {
					vh.add(v)
				}
			}
		}
	}
	return fmt.Sprintf("%016x", vh.h.Sum64())
}

// afterSetup notes the live heap and the resident-set high-water mark the
// set-up left, and returns the live heap in MB.
func afterSetup(out *result) float64 {
	live := heapLiveMB()
	rss, err := peakRSSMB()
	if err != nil {
		rss = -1
	}
	out.note("after set-up: live heap %.1f MB, peak RSS so far %.1f MB", live, rss)
	return live
}
