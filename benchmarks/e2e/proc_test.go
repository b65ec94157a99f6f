package main

import (
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses.
	stat := "4242 (mc) served (x)) S 1 4242 4242 0 -1 4194560 917 0 0 0 1234 766 0 0 20 0 9 0 100 1 2 3"
	got, err := parseStatCPU([]byte(stat))
	if err != nil || got != 20 {
		t.Errorf("parseStatCPU = %v, %v; want 20 s (1234+766 ticks)", got, err)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded", bad)
		}
	}
	self, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		t.Skip("no /proc here")
	}
	if _, err := parseStatCPU(self); err != nil {
		t.Errorf("own stat line: %v", err)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tmcserved\nVmPeak:\t  999999 kB\nVmHWM:\t  123904 kB\nVmRSS:\t  100000 kB\n"
	got, err := parseVmHWM([]byte(status))
	if err != nil || got != 121 {
		t.Errorf("parseVmHWM = %v, %v; want 121 MB", got, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tmany kB\n"} {
		if _, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) succeeded", bad)
		}
	}
}

func TestResponseGeneration(t *testing.T) {
	body := []byte("{\n  \"answers\": [\n    \"r1n2\"\n  ],\n  \"generation\": 1207,\n  \"elapsed_ms\": 0.1\n}\n")
	if gen, ok := responseGeneration(body); !ok || gen != 1207 {
		t.Errorf("responseGeneration = %d, %v", gen, ok)
	}
	if _, ok := responseGeneration([]byte(`{"error": "x"}`)); ok {
		t.Error("found a generation in an error body")
	}
}
