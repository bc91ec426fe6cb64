package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// envInfo is the environment a result was measured in, so a noisy pair
// of runs can be recognised as such.
type envInfo struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"` // git revision the binary was built from
	Clients    int     `json:"clients"`
	LoadStart  float64 `json:"load1Start"`
	LoadEnd    float64 `json:"load1End"`
	// StealSeconds is CPU time the hypervisor gave to someone else
	// during the run, summed over cores: the sandbox's own noise.
	StealSeconds float64 `json:"stealSeconds"`

	stealStart float64
}

// commit is `git rev-parse HEAD` of the tree the binary was built from;
// run.sh sets it at link time where the checkout is a git work tree.
var commit = "unknown"

func currentEnv() envInfo {
	return envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		LoadStart:  loadAverage(),
		stealStart: stealSeconds(),
	}
}

// finish records the end-of-run readings.
func (e *envInfo) finish() {
	e.LoadEnd = loadAverage()
	e.StealSeconds = stealSeconds() - e.stealStart
}

// stealSeconds is the steal column of /proc/stat's cpu line (in ticks
// of 1/100 s), 0 where /proc has none.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
		ticks, _ := strconv.ParseFloat(f[8], 64)
		return ticks / 100
	}
	return 0
}

// loadAverage is the 1-minute load average, 0 where /proc has none.
func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	first, _, _ := strings.Cut(string(data), " ")
	v, _ := strconv.ParseFloat(first, 64)
	return v
}

// secondsPeakMB runs f and returns the resident-set peak of its median
// second. VmHWM, one maximum over however long it has run, moves by a
// quarter between identical runs with the timing of a single collection;
// reset at the start of every second of f and read at its end, it gives
// a median of many such peaks. Where the kernel refuses the reset every
// second reads the whole-process mark.
func secondsPeakMB(f func()) float64 {
	var peaks []float64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // 5 resets VmHWM
			select {
			case <-tick.C:
				peaks = append(peaks, peakRSSMB())
			case <-stop:
				if len(peaks) == 0 { // f took less than a second
					peaks = append(peaks, peakRSSMB())
				}
				return
			}
		}
	}()
	f()
	close(stop)
	<-done
	return median(peaks)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in
// MB, 0 where /proc has none.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
