package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"qunits/internal/imdb"
	"qunits/internal/server"
	"qunits/internal/snapshot"
)

// prepared is the state every workload starts from, built once per
// source state and kept under the build directory: the qunitsd binary,
// the snapshot the snapshot-booted workloads load, and the probe set
// with the answers the in-process engine gives. It is keyed by a hash
// of the Go sources, so a changed program never meets a stale binary,
// snapshot or expectation.
type prepared struct {
	dir      string
	qunitsd  string
	snapshot string
	probes   []probe
}

// probe is one correctness request and the scrubbed response the
// in-process engine renders for it through the server handler.
type probe struct {
	Request  string `json:"request"`
	Expected string `json:"expected"`
}

// sourceHash digests go.mod and every non-test Go file under root.
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // path was produced by walking root
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// prepare returns the prepared state for the sources under root,
// building whatever part of it is missing. The go build and the
// snapshot save happen here, outside every measured interval.
func prepare(ctx context.Context, root, buildDir, logDir string, instances, volume int, u *imdb.Universe) (*prepared, error) {
	hash, err := sourceHash(root)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(buildDir, fmt.Sprintf("state-%s-%d", hash, instances))
	p := &prepared{
		dir:      dir,
		qunitsd:  filepath.Join(dir, "qunitsd"),
		snapshot: filepath.Join(dir, "corpus.qsnp"),
	}
	probesPath := filepath.Join(dir, "probes.json") // written last: its presence marks the state complete
	if data, err := os.ReadFile(probesPath); err == nil {
		if err := json.Unmarshal(data, &p.probes); err != nil {
			return nil, fmt.Errorf("reading %s: %w", probesPath, err)
		}
		return p, nil
	}

	// States of other source hashes at this size are dead weight (a
	// snapshot is 131 MB); drop them before building the new one.
	stale, _ := filepath.Glob(filepath.Join(buildDir, fmt.Sprintf("state-*-%d", instances)))
	for _, s := range stale {
		os.RemoveAll(s)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	build := exec.CommandContext(ctx, "go", "build", "-o", p.qunitsd, "./cmd/qunitsd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/qunitsd: %w\n%s", err, out)
	}

	// A real qunitsd builds the engine and, on SIGTERM, writes the
	// snapshot the snapshot-booted workloads load.
	f := &fleet{bin: p.qunitsd, logDir: logDir}
	defer f.killAll()
	child, err := f.start("prepare", "-instances", strconv.Itoa(instances), "-seed", strconv.Itoa(corpusSeed), "-snapshot", p.snapshot)
	if err != nil {
		return nil, err
	}
	bootCtx, cancel := context.WithTimeout(ctx, 5*time.Minute)
	defer cancel()
	if err := waitHealthy(bootCtx, &http.Client{Timeout: time.Second}, []*proc{child}); err != nil {
		return nil, err
	}
	if err := child.terminate(5 * time.Minute); err != nil {
		return nil, err
	}

	// The oracle: the same snapshot loaded in-process, each probe
	// rendered through the same server handler the children serve with.
	engine, _, err := snapshot.LoadEngineFile(p.snapshot, u.DB)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", p.snapshot, err)
	}
	handler := server.New(engine, server.Config{CacheSize: -1})
	qs, err := deriveQuerySets(u, probeSeed, volume)
	if err != nil {
		return nil, err
	}
	for _, req := range probeRequests(qs) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(req)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("oracle answered probe %s with %d: %s", req, rec.Code, rec.Body.Bytes())
		}
		p.probes = append(p.probes, probe{Request: string(req), Expected: string(scrub(rec.Body.Bytes()))})
	}
	tmp := probesPath + ".tmp"
	if err := os.WriteFile(tmp, mustJSON(p.probes), 0o644); err != nil {
		return nil, err
	}
	return p, os.Rename(tmp, probesPath)
}

var volatileFields = regexp.MustCompile(`"cached":(?:true|false),"took_us":\d+`)

// scrub blanks the two response fields that legitimately differ between
// two correct answers, leaving every other byte as sent.
func scrub(body []byte) []byte {
	return bytes.TrimSpace(volatileFields.ReplaceAll(body, []byte(`"cached":false,"took_us":0`)))
}
