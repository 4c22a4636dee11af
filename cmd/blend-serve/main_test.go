//go:build unix

package main

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestServe builds the blend-serve binary once and drives it end to end:
// start over a CSV lake, answer /healthz and one SC seek, exit 0 on
// SIGTERM, and reject bad command lines with exit status 2 and a
// structured error line.
func TestServe(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "blend-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	lake := filepath.Join(dir, "lake")
	writeFile(t, filepath.Join(lake, "T1.csv"), "Team,Size\nHR,33\nIT,92\n")
	writeFile(t, filepath.Join(lake, "T2.csv"), "Lead,Year,Team\nTom Riddle,2022,IT\nFirenze,2022,HR\n")
	writeFile(t, filepath.Join(lake, "T3.csv"), "Lead,Year,Team\nRonald Weasley,2024,IT\nFirenze,2024,HR\n")

	t.Run("serve", func(t *testing.T) {
		addr := freeAddr(t)
		logPath := filepath.Join(dir, "serve.log")
		logf, err := os.Create(logPath)
		if err != nil {
			t.Fatal(err)
		}
		defer logf.Close()
		cmd := exec.Command(bin, "-lake", lake, "-addr", addr)
		cmd.Stdout, cmd.Stderr = logf, logf
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		exited := false
		defer func() {
			if !exited {
				cmd.Process.Kill()
				cmd.Wait()
			}
		}()
		base := "http://" + addr

		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := http.Get(base + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("no healthy answer within 5s (last error %v)", err)
			}
			time.Sleep(20 * time.Millisecond)
		}

		resp, err := http.Post(base+"/v1/seek", "application/json", strings.NewReader(
			`{"seeker": {"kind": "sc", "values": ["Tom Riddle", "Firenze"], "k": 5}}`))
		if err != nil {
			t.Fatal(err)
		}
		var seek struct {
			Hits []struct {
				Table string  `json:"table"`
				Score float64 `json:"score"`
			} `json:"hits"`
		}
		err = json.NewDecoder(resp.Body).Decode(&seek)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("seek: status %d, decode error %v", resp.StatusCode, err)
		}
		if len(seek.Hits) != 2 || seek.Hits[0].Table != "T2" || seek.Hits[0].Score != 2 || seek.Hits[1].Table != "T3" {
			t.Fatalf("seek hits %+v, want T2 (2) then T3", seek.Hits)
		}

		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		err = cmd.Wait()
		exited = true
		out, _ := os.ReadFile(logPath)
		if err != nil {
			t.Fatalf("exit after SIGTERM: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), "bye") {
			t.Fatalf("log lacks the bye line\n%s", out)
		}
	})

	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no-source", nil, "serve.flags: one of -index or -lake is required"},
		{"unknown-flag", []string{"-bogus"}, "serve.flags: flag provided but not defined: -bogus"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit %v, want status 2\n%s", err, out)
			}
			if !strings.HasPrefix(string(out), "blend-serve: error[bad_request]: ") || !strings.Contains(string(out), tc.want) {
				t.Fatalf("output lacks the bad_request error line with %q\n%s", tc.want, out)
			}
		})
	}
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return "127.0.0.1:" + strconv.Itoa(l.Addr().(*net.TCPAddr).Port)
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
