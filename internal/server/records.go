package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/cli"
	"repro/internal/event"
	"repro/internal/store"
)

// recordDir is the on-disk home of one kind of durable record, sessions or
// mining jobs: <dir>/<id>.json holds a record and <dir>/<id>.events/ its
// event log. It owns what the two stores share: the paths, the ID claim,
// atomic writes, strict loads with quarantine, the restore walk and
// removal. Its mutex guards only the ID bookkeeping, so a store may claim
// while holding its own lock.
type recordDir struct {
	dir    string
	kind   string // "session" or "job", for errors and log lines
	prefix string // local IDs are prefix + %06d

	mu      sync.Mutex
	next    int
	claimed map[string]bool // live records and records being created
}

func newRecordDir(dir, kind, prefix string) (*recordDir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &recordDir{dir: dir, kind: kind, prefix: prefix, next: 1, claimed: make(map[string]bool)}, nil
}

// path is id's record file.
func (d *recordDir) path(id string) string { return filepath.Join(d.dir, id+".json") }

// logDir is id's event-log directory.
func (d *recordDir) logDir(id string) string { return filepath.Join(d.dir, id+".events") }

// claim takes the ID of a new record: the next local ID when assigned is
// empty, otherwise assigned itself (a router placing the record on its
// hash ring, or a migration bundle). An assigned ID is refused while it is
// claimed, or while its record or event log is on disk: restore keeps both
// for a record it skips or quarantines, and a new record under that ID
// would overwrite the one and replay or delete the other. The claim holds
// until remove.
func (d *recordDir) claim(assigned string) (string, error) {
	if err := validAssignedID(assigned); err != nil {
		return "", err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	id := assigned
	if id == "" {
		id = fmt.Sprintf("%s%06d", d.prefix, d.next)
	} else if d.claimed[id] || exists(d.path(id)) || exists(d.logDir(id)) {
		return "", fmt.Errorf("server: %s %q already exists", d.kind, id)
	}
	d.reserveLocked(id)
	d.claimed[id] = true
	return id, nil
}

// reserveLocked keeps the local ID scheme above id; callers hold d.mu.
func (d *recordDir) reserveLocked(id string) {
	num, ok := strings.CutPrefix(id, d.prefix)
	if !ok {
		return
	}
	n := 0
	for _, c := range num {
		if c < '0' || c > '9' {
			return
		}
		n = n*10 + int(c-'0')
	}
	if n >= d.next {
		d.next = n + 1
	}
}

// reserve is reserveLocked for the restore walk.
func (d *recordDir) reserve(id string) {
	d.mu.Lock()
	d.reserveLocked(id)
	d.mu.Unlock()
}

// save writes v as id's record: indented JSON, atomically replaced by
// store.WriteFileAtomic. The temporary name is fixed, so callers serialize
// the writes of one record (session.mu, job.persistMu).
func (d *recordDir) save(id string, v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	return store.WriteFileAtomic(store.DirFS{}, d.path(id), buf.Bytes())
}

// load strictly decodes id's record into v. A record that does not decode
// is quarantined to <id>.json.corrupt by cli.LoadCheckpoint.
func (d *recordDir) load(id string, v any) error {
	loaded, err := cli.LoadCheckpoint(d.path(id), func(r io.Reader) error {
		dec := json.NewDecoder(r)
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	})
	if err == nil && !loaded {
		err = fmt.Errorf("record vanished during restore")
	}
	return err
}

// writeLog writes seq as id's event log in chunks, so a large sequence
// rolls across segments. A failed write leaves no log behind.
func (d *recordDir) writeLog(id string, opts store.Options, seq event.Sequence) error {
	dir := d.logDir(id)
	lg, _, err := store.Open(dir, opts)
	if err != nil {
		return err
	}
	const chunk = 512
	for i := 0; i < len(seq) && err == nil; i += chunk {
		_, err = lg.Append(seq[i:min(i+chunk, len(seq))]...)
	}
	if cerr := lg.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.RemoveAll(dir)
	}
	return err
}

// remove deletes id's record and event log and releases its claim.
func (d *recordDir) remove(id string) {
	os.Remove(d.path(id))
	os.RemoveAll(d.logDir(id))
	d.mu.Lock()
	delete(d.claimed, id)
	d.mu.Unlock()
}

// restore hands every record on disk to load, in name order, and claims
// the ID of each one load accepts. A refused record stays on disk with its
// log and its ID stays out of reuse (one that did not decode was
// quarantined by d.load). Event-log directories whose record is gone (a
// close or failed create that crashed between the two deletes) are swept,
// except the log of a quarantined record, which is kept as evidence. It
// reports how many records load accepted.
func (d *recordDir) restore(logger *log.Logger, load func(id string) error) (int, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return 0, err
	}
	restored := 0
	var logs []string
	for _, e := range entries {
		if id, ok := strings.CutSuffix(e.Name(), ".events"); ok && e.IsDir() {
			logs = append(logs, id)
			continue
		}
		id, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || e.IsDir() {
			continue
		}
		d.reserve(id)
		if err := load(id); err != nil {
			logger.Printf("%s record %s not restored: %v", d.kind, e.Name(), err)
			continue
		}
		d.mu.Lock()
		d.claimed[id] = true
		d.mu.Unlock()
		restored++
	}
	for _, id := range logs {
		switch {
		case exists(d.path(id)):
		case exists(d.path(id) + ".corrupt"):
			d.reserve(id)
		default:
			os.RemoveAll(d.logDir(id))
		}
	}
	return restored, nil
}

// exists reports whether path names a file or directory.
func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
