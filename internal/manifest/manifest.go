// Package manifest implements the declarative experiment runfile: a
// plain-text description of a whole sweep — hundreds of simulations over
// topologies, node counts, governors, fault scenarios and seeds — that
// expands into concrete experiment configurations and runs them through
// the all-core sweep pool.
//
// The format follows the runfile style of deployment simulators (one
// global-defaults section, then a comma-separated experiment table, one
// line per sweep point):
//
//	# Global defaults: apply to every line below unless overridden.
//	frames = 40
//	governor = "interval"
//
//	topology, nodes, faults, seeds, label
//	"serial",     2,       "",     "", "chain-2"
//	"serial",     4, "default", "1..3", "chain-4-faulted"
//
// Globals use `key = value`; the first line without an unquoted `=`
// is the column header, and every later non-comment line is one
// experiment. Cells are comma-separated; a cell may be double-quoted
// (required when the value itself contains a comma or equals sign, as
// governor specs do). An *unquoted* empty cell inherits the global
// default for that column; a *quoted* empty cell ("") explicitly clears
// it. Unknown global keys and unknown columns are rejected — a typo
// fails the load instead of silently running the wrong sweep.
//
// See MANIFESTS.md at the repository root for the full grammar and the
// worked manifests under scenarios/manifests/.
package manifest

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Column names an experiment line may set. "label" aside, each is also
// a legal global default except the identity keys (experiment, topology
// and the shape keys), which define what a line *is* rather than how it
// runs.
var columnKeys = []string{
	"label", "experiment", "topology",
	"nodes", "stages", "width", "bf", "depth", "sensors", "aggregators",
	"governor", "faults", "assert", "rotation", "frames", "d", "seeds",
}

// globalKeys are the keys legal in the `key = value` section.
var globalKeys = []string{
	"platform", "base_seed",
	"governor", "faults", "assert", "rotation", "frames", "d", "seeds",
}

// cell is one parsed value. The quoted flag distinguishes an explicit
// empty ("") from an omitted cell: omitted inherits the global default,
// quoted-empty overrides it with nothing.
type cell struct {
	text   string
	quoted bool
}

// set reports whether the cell carries a value of its own.
func (c cell) set() bool { return c.quoted || c.text != "" }

// line is one experiment row: its 1-based source line number and the
// cells keyed by column name.
type line struct {
	n     int
	cells map[string]cell
}

// Manifest is a parsed runfile, not yet expanded into experiments.
type Manifest struct {
	// Resolve maps a platform, fault-scenario or assertion-spec
	// reference to its file, or refuses it. LoadFile resolves relative
	// to the manifest's directory and Load relative to the current
	// one; dvsimd confines a submitted runfile to its scenario root.
	Resolve func(ref string) (string, error)
	globals map[string]cell
	columns []string
	lines   []line
}

// LoadFile parses the runfile at path. Relative platform, scenario and
// assertion paths inside the manifest resolve against its directory;
// absolute ones stay as written.
func LoadFile(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m.Resolve = inDir(filepath.Dir(path))
	return m, nil
}

// inDir resolves relative references against dir and returns an
// absolute one unchanged.
func inDir(dir string) func(string) (string, error) {
	return func(ref string) (string, error) {
		if filepath.IsAbs(ref) {
			return ref, nil
		}
		return filepath.Join(dir, ref), nil
	}
}

// Load parses a runfile. Relative paths inside it resolve against the
// current directory unless Resolve is set afterwards.
func Load(r io.Reader) (*Manifest, error) {
	m := &Manifest{Resolve: inDir("."), globals: make(map[string]cell)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		switch {
		case m.columns == nil && hasUnquoted(text, '='):
			if err := m.parseGlobal(text); err != nil {
				return nil, fmt.Errorf("line %d: %w", n, err)
			}
		case m.columns == nil:
			if err := m.parseHeader(text); err != nil {
				return nil, fmt.Errorf("line %d: %w", n, err)
			}
		default:
			if err := m.parseRow(n, text); err != nil {
				return nil, fmt.Errorf("line %d: %w", n, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if m.columns == nil {
		return nil, fmt.Errorf("manifest: no experiment table (want a comma-separated column header after the globals)")
	}
	if len(m.lines) == 0 {
		return nil, fmt.Errorf("manifest: empty sweep — the experiment table has a header but no lines")
	}
	return m, nil
}

func (m *Manifest) parseGlobal(text string) error {
	i := indexUnquoted(text, '=')
	key := strings.TrimSpace(text[:i])
	val, err := parseCell(text[i+1:])
	if err != nil {
		return err
	}
	if !contains(globalKeys, key) {
		if contains(columnKeys, key) {
			return fmt.Errorf("manifest: key %q is per-line only, not a global default", key)
		}
		return fmt.Errorf("manifest: unknown global key %q", key)
	}
	if _, dup := m.globals[key]; dup {
		return fmt.Errorf("manifest: global key %q set twice", key)
	}
	m.globals[key] = val
	return nil
}

func (m *Manifest) parseHeader(text string) error {
	cells, err := splitCells(text)
	if err != nil {
		return err
	}
	seen := make(map[string]bool)
	for _, c := range cells {
		name := c.text
		if !contains(columnKeys, name) {
			return fmt.Errorf("manifest: unknown column %q", name)
		}
		if seen[name] {
			return fmt.Errorf("manifest: duplicate column %q", name)
		}
		seen[name] = true
		m.columns = append(m.columns, name)
	}
	return nil
}

func (m *Manifest) parseRow(n int, text string) error {
	cells, err := splitCells(text)
	if err != nil {
		return err
	}
	if len(cells) != len(m.columns) {
		return fmt.Errorf("manifest: %d cells for %d columns", len(cells), len(m.columns))
	}
	row := line{n: n, cells: make(map[string]cell, len(cells))}
	for i, c := range cells {
		row.cells[m.columns[i]] = c
	}
	m.lines = append(m.lines, row)
	return nil
}

// value resolves key for a row: the row's own cell when set (a quoted
// empty counts as set), else the global default, else "".
func (m *Manifest) value(row line, key string) string {
	if c, ok := row.cells[key]; ok && c.set() {
		if c.quoted && c.text == "" {
			return ""
		}
		return c.text
	}
	if c, ok := m.globals[key]; ok {
		return c.text
	}
	return ""
}

// global resolves a global-only key (platform, base_seed).
func (m *Manifest) global(key string) string {
	return m.globals[key].text
}

// splitCells splits one comma-separated row, honoring double quotes: a
// comma inside quotes does not split, and quotes are stripped from the
// result with the quoted flag kept.
func splitCells(text string) ([]cell, error) {
	var out []cell
	for {
		i := indexUnquoted(text, ',')
		if i < 0 {
			c, err := parseCell(text)
			if err != nil {
				return nil, err
			}
			return append(out, c), nil
		}
		c, err := parseCell(text[:i])
		if err != nil {
			return nil, err
		}
		out = append(out, c)
		text = text[i+1:]
	}
}

// parseCell trims one cell and strips one level of double quotes.
func parseCell(text string) (cell, error) {
	text = strings.TrimSpace(text)
	if text == "" {
		return cell{}, nil
	}
	if text[0] != '"' {
		if strings.Contains(text, `"`) {
			return cell{}, fmt.Errorf("manifest: malformed cell %s (quote inside unquoted value)", text)
		}
		return cell{text: text}, nil
	}
	if len(text) < 2 || text[len(text)-1] != '"' {
		return cell{}, fmt.Errorf("manifest: unterminated quote in %s", text)
	}
	inner := text[1 : len(text)-1]
	if strings.Contains(inner, `"`) {
		return cell{}, fmt.Errorf("manifest: malformed cell %s (nested quote)", text)
	}
	return cell{text: inner, quoted: true}, nil
}

// hasUnquoted reports whether b occurs in text outside double quotes.
func hasUnquoted(text string, b byte) bool { return indexUnquoted(text, b) >= 0 }

// indexUnquoted returns the index of the first b outside double quotes,
// or -1.
func indexUnquoted(text string, b byte) int {
	quoted := false
	for i := 0; i < len(text); i++ {
		switch {
		case text[i] == '"':
			quoted = !quoted
		case text[i] == b && !quoted:
			return i
		}
	}
	return -1
}

func contains(keys []string, k string) bool {
	for _, key := range keys {
		if key == k {
			return true
		}
	}
	return false
}
