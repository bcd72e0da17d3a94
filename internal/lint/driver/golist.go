package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
)

// listPackage is the subset of `go list -json` output the driver
// consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	DepOnly    bool
	GoFiles    []string
	CgoFiles   []string
	Error      *struct{ Err string }
}

// loadModulePackages enumerates patterns (and all transitive
// dependencies) with the go command, returning a source map for the
// Loader and the analysis targets — the pattern-matched packages — in
// `go list -deps` order, which is deterministic.
func loadModulePackages(dir string, patterns []string) (map[string]*Source, []string, error) {
	args := append([]string{
		"list", "-e", "-deps",
		"-json=ImportPath,Dir,DepOnly,GoFiles,CgoFiles,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("go list: %w", err)
	}

	sources := make(map[string]*Source)
	var targets []string
	dec := json.NewDecoder(out)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			cmd.Wait()
			return nil, nil, fmt.Errorf("go list output: %w", err)
		}
		if p.Error != nil && !p.DepOnly {
			cmd.Wait()
			return nil, nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		// Cgo files cannot be type-checked without running cgo;
		// signatures-only dependency loading tolerates their absence,
		// and no analysis target in this zero-dependency module may
		// use cgo.
		if len(p.CgoFiles) > 0 && !p.DepOnly {
			cmd.Wait()
			return nil, nil, fmt.Errorf("package %s uses cgo; the determinism analyzers cannot check it", p.ImportPath)
		}
		files := make([]string, 0, len(p.GoFiles))
		for _, f := range p.GoFiles {
			files = append(files, filepath.Join(p.Dir, f))
		}
		sources[p.ImportPath] = &Source{Path: p.ImportPath, Files: files}
		if !p.DepOnly {
			targets = append(targets, p.ImportPath)
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, nil, fmt.Errorf("go list: %w\n%s", err, stderr.String())
	}
	return sources, targets, nil
}
