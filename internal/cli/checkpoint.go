package cli

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/store"
)

// CorruptCheckpointError reports a checkpoint file that exists but does
// not decode — truncated, torn or otherwise damaged. LoadCheckpoint has
// already renamed the damaged file to Quarantine when the error is
// returned, so a retry (or a restart) finds no checkpoint and starts
// fresh instead of crash-looping on the same bad bytes.
type CorruptCheckpointError struct {
	Path       string // the checkpoint that failed to decode
	Quarantine string // where the damaged bytes were moved ("" if the move failed)
	Err        error  // the decoder's complaint
}

func (e *CorruptCheckpointError) Error() string {
	if e.Quarantine != "" {
		return fmt.Sprintf("cli: corrupt checkpoint %s (moved to %s): %v", e.Path, e.Quarantine, e.Err)
	}
	return fmt.Sprintf("cli: corrupt checkpoint %s: %v", e.Path, e.Err)
}

func (e *CorruptCheckpointError) Unwrap() error { return e.Err }

// LoadCheckpoint opens a checkpoint file and feeds it to decode. A missing
// file is not an error: it reports (false, nil) so callers start fresh. A
// file that fails to decode is renamed to path+".corrupt" (keeping the
// evidence, clearing the way) and reported as a *CorruptCheckpointError;
// callers that treat it as soft can errors.As for it and start fresh too.
func LoadCheckpoint(path string, decode func(io.Reader) error) (loaded bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("cli: opening checkpoint: %w", err)
	}
	defer f.Close()
	if err := decode(f); err != nil {
		cerr := &CorruptCheckpointError{Path: path, Err: err}
		quarantine := path + ".corrupt"
		if rerr := os.Rename(path, quarantine); rerr == nil {
			cerr.Quarantine = quarantine
			store.DirFS{}.SyncDir(filepath.Dir(path))
		}
		return false, cerr
	}
	return true, nil
}
