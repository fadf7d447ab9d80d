// Package journal implements the append-only run journal behind
// crash-safe, resumable sweeps. Every record is one JSON line with an
// embedded FNV-1a checksum, fsync'd on append, so a sweep killed at any
// instant leaves a journal whose valid prefix is a faithful record of
// every cell that completed. Reopening tolerates a corrupt tail (the
// torn line of the crash) by truncating it; corruption *before* valid
// records is refused — that is damage, not a crash signature.
//
// Seal and Sealed are the one codec for checksummed lines; the result
// cache seals its entries with it too. Sealed checks the stored bytes.
//
// Three record kinds exist, all schema-versioned:
//
//   - "header": the sweep identity (workload, configs, policy, seeds),
//     written once at creation and validated on resume so a journal is
//     never resumed against a different experiment;
//   - "cell": one completed (config, run) cell with its metric value,
//     secondary metrics, run digest, and error if the run failed;
//   - "figure": one completed figure regeneration (asmp-run), carrying
//     the rendered text and CSV so a resumed -all replays it verbatim.
package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"

	"asmp/internal/digest"
)

// Version is the journal schema version; bump on incompatible record
// changes. Readers refuse newer versions.
const Version = 1

// Record kinds.
const (
	KindHeader = "header"
	KindCell   = "cell"
	KindFigure = "figure"
)

// Sink is the journal's seam to the filesystem: the exact five
// operations Writer and Resume perform on the backing file, and nothing
// else. *os.File is the default implementation; internal/faultio wraps
// one to inject torn writes and failing syncs, which is how the
// crash-consistency contract (DESIGN.md §9) is tested. The methods are
// declared here rather than embedded from io so every call through the
// seam is covered by the journalerr lint rule.
type Sink interface {
	Write(p []byte) (n int, err error)
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// WrapSink optionally decorates the file a journal writes through; nil
// means "use the file as is". Fault injectors (internal/faultio) are
// the intended wrappers — production code always passes nil.
type WrapSink func(Sink) Sink

// wrapSink applies wrap to f, treating nil as the identity.
func wrapSink(f Sink, wrap WrapSink) Sink {
	if wrap == nil {
		return f
	}
	return wrap(f)
}

// DamagedError reports corruption that cannot be a crash tail:
// a corrupt record *followed by valid records*, or a structurally
// impossible journal (duplicate header, header after data). Crashes
// only ever tear the final append, so damage earlier in the file means
// the journal cannot be trusted and Read/Resume refuse it rather than
// guess.
type DamagedError struct {
	// Path is the journal file.
	Path string
	// Line is the offending line number (1-based).
	Line int
	// Offset is the byte offset at which the offending line starts —
	// the first byte an operator would inspect or cut at.
	Offset int64
	// Reason is the complete human-readable explanation (it embeds Line
	// and Offset).
	Reason string
}

func (e *DamagedError) Error() string {
	return fmt.Sprintf("journal: %s: %s", e.Path, e.Reason)
}

// Float is a float64 whose JSON form round-trips non-finite values:
// NaN and ±Inf encode as the quoted strings "NaN", "+Inf" and "-Inf"
// (encoding/json rejects the bare tokens), finite values encode as
// plain JSON numbers, byte-identical to an untyped float64. Without
// this, one NaN metric in an otherwise successful run would fail
// json.Marshal inside Seal and sticky-kill the Writer — silently ending
// journaling for the whole sweep.
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "NaN":
			*f = Float(math.NaN())
		case "+Inf":
			*f = Float(math.Inf(1))
		case "-Inf":
			*f = Float(math.Inf(-1))
		default:
			return fmt.Errorf("journal: invalid float %q", s)
		}
		return nil
	}
	if string(b) == "null" {
		return nil // a no-op, as encoding/json treats a float64
	}
	// encoding/json hands over only valid JSON, so b is a number here
	// or a value ParseFloat refuses, as it refuses 1e400.
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("journal: invalid float %s", b)
	}
	*f = Float(v)
	return nil
}

// Extras is a secondary-metric map in journal form (non-finite-safe).
type Extras map[string]Float

// MakeExtras converts a workload's secondary metrics to journal form.
// The result is always a fresh map (nil in, nil out), so a journal
// record never aliases caller state.
func MakeExtras(m map[string]float64) Extras {
	if m == nil {
		return nil
	}
	e := make(Extras, len(m))
	for k, v := range m {
		e[k] = Float(v)
	}
	return e
}

// Floats converts back to a plain secondary-metric map, again as a
// fresh copy (nil in, nil out): mutating the result never reaches the
// parsed Log, and vice versa.
func (e Extras) Floats() map[string]float64 {
	if e == nil {
		return nil
	}
	m := make(map[string]float64, len(e))
	for k, v := range e {
		m[k] = float64(v)
	}
	return m
}

// Header identifies the sweep (or figure run) the journal belongs to.
// Unused fields stay empty: asmp-sweep journals fill the experiment
// fields, asmp-run journals fill Tool/Quick.
type Header struct {
	Kind string `json:"kind"`
	V    int    `json:"v"`
	// Tool names the writing command ("asmp-sweep", "asmp-run").
	Tool string `json:"tool,omitempty"`
	// Name echoes the experiment name.
	Name string `json:"name,omitempty"`
	// Workload, Policy, Configs, Runs, BaseSeed, Fault, Timeout and
	// Retries pin the sweep identity a resume must match
	// (core.Experiment.Identity renders it).
	Workload string   `json:"workload,omitempty"`
	Policy   string   `json:"policy,omitempty"`
	Configs  []string `json:"configs,omitempty"`
	Runs     int      `json:"runs,omitempty"`
	BaseSeed uint64   `json:"baseSeed,omitempty"`
	Fault    string   `json:"fault,omitempty"`
	// Timeout is the per-run virtual-time watchdog in its canonical
	// fault-plan form ("25s"); Retries the per-cell retry budget. Both
	// decide which runs fail, so both are identity; omitempty keeps the
	// header of a sweep that sets neither byte-identical to journals
	// without these fields, such as results/sample-run.jsonl.
	Timeout string `json:"timeout,omitempty"`
	Retries int    `json:"retries,omitempty"`
	// Quick records asmp-run's -quick flag (resolution must match on
	// resume).
	Quick bool `json:"quick,omitempty"`
	// Sum is the line checksum (FNV-1a of the record with Sum empty).
	// It must stay the last field of every sealed record: Seal splices
	// it in after the others.
	Sum string `json:"sum,omitempty"`
}

// Cell is one completed (config, run) cell of a sweep.
type Cell struct {
	Kind string `json:"kind"`
	// Config is the canonical configuration string; Cfg and Run index
	// the cell within the sweep.
	Config string `json:"config"`
	Cfg    int    `json:"cfg"`
	Run    int    `json:"run"`
	// Attempt is the retry attempt that produced this record (0 = first
	// try); Seed is the derived seed that attempt used.
	Attempt int    `json:"attempt,omitempty"`
	Seed    uint64 `json:"seed"`
	// Metric/Value/Higher/Extras mirror workload.Result. Value and
	// Extras are journal.Float so non-finite metrics survive the JSON
	// round trip; finite values encode byte-identically to float64.
	Metric string `json:"metric,omitempty"`
	Value  Float  `json:"value,omitempty"`
	Higher bool   `json:"higher,omitempty"`
	Extras Extras `json:"extras,omitempty"`
	// Digest is the run digest in hex (empty for failed runs).
	Digest string `json:"digest,omitempty"`
	// Err records a failed run's error; failed cells are re-executed on
	// resume.
	Err string `json:"err,omitempty"`
	// Sum is the line checksum.
	Sum string `json:"sum,omitempty"`
}

// Figure is one completed figure regeneration (asmp-run journals).
type Figure struct {
	Kind string `json:"kind"`
	// ID is the figure id ("4a", "table1", "fault", ...).
	ID string `json:"id"`
	// Txt and Csv are the rendered outputs, replayed verbatim on resume.
	Txt string `json:"txt"`
	Csv string `json:"csv,omitempty"`
	// Sum is the line checksum.
	Sum string `json:"sum,omitempty"`
}

// Log is a parsed journal.
type Log struct {
	// Path is where the journal was read from.
	Path string
	// Header is the identity record, nil if the journal is empty or was
	// truncated before the header survived.
	Header *Header
	// Cells and Figures are the completed records in append order.
	Cells   []Cell
	Figures []Figure
	// Dropped counts corrupt trailing lines that were ignored (a torn
	// final write from a crash).
	Dropped int
}

// Cell returns the record for a (cfg, run) cell, or nil. When a cell
// appears more than once (a failed attempt later superseded), the last
// record wins.
func (l *Log) Cell(cfg, run int) *Cell {
	for i := len(l.Cells) - 1; i >= 0; i-- {
		if l.Cells[i].Cfg == cfg && l.Cells[i].Run == run {
			return &l.Cells[i]
		}
	}
	return nil
}

// Figure returns the record for a figure id, or nil.
func (l *Log) Figure(id string) *Figure {
	for i := len(l.Figures) - 1; i >= 0; i-- {
		if l.Figures[i].ID == id {
			return &l.Figures[i]
		}
	}
	return nil
}

// sumKey opens the checksum member Seal splices onto every record.
const sumKey = `,"sum":"`

// sealTail is the length of what Seal appends after a record's last
// field: sumKey, the 16 hex digits of the checksum, and `"}`.
const sealTail = len(sumKey) + 16 + len(`"}`)

// checksum returns the hex FNV-1a digest of a marshalled record whose
// Sum field was empty when marshalled.
func checksum(raw []byte) string { return digest.OfBytes(raw).String() }

// Seal renders rec as one sealed line, without its newline. rec is
// marshalled once, with its Sum field empty, and `,"sum":"<16 hex>"`
// — the checksum of those bytes — is spliced in before the closing
// brace. Every sealed type (Header, Cell, Figure and the result
// cache's entry) declares Sum, tagged "sum,omitempty", as its last
// field, so the line is byte-identical to marshalling rec a second
// time with Sum set. rec's Sum must be empty, and rec must marshal to
// an object with at least one other field.
func Seal(rec any) ([]byte, error) {
	raw, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	// One spare byte: both callers append a newline.
	line := make([]byte, 0, len(raw)-1+sealTail+1)
	line = append(line, raw[:len(raw)-1]...)
	line = append(line, sumKey...)
	line = append(line, checksum(raw)...)
	return append(line, `"}`...), nil
}

// Sealed reports whether line (without its newline) is exactly what
// Seal wrote: it ends in `,"sum":"<16 hex>"}` and the hex is the
// checksum of the bytes before that suffix, closed with `}`. The check
// runs over the stored bytes, so any byte change short of a checksum
// collision fails it, including one that decodes to the same record
// (`1234.5` edited to `1234.50`).
func Sealed(line []byte) bool {
	n := len(line) - sealTail
	if n < 1 || string(line[n:n+len(sumKey)]) != sumKey || string(line[len(line)-2:]) != `"}` {
		return false
	}
	body := append(line[:n:n], '}')
	return checksum(body) == string(line[n+len(sumKey):len(line)-2])
}

// Writer appends sealed records to a journal file. It is safe for
// concurrent use (sweep cells complete on parallel workers) and sticky
// on error: after a failed append every later append is a no-op and Err
// reports the first failure, so a full sweep never crashes on a journal
// problem — it finishes and reports the journal as incomplete.
type Writer struct {
	mu   sync.Mutex
	f    Sink
	path string
	err  error
}

// Create truncates/creates a journal at path.
func Create(path string) (*Writer, error) { return CreateVia(path, nil) }

// CreateVia is Create with a sink wrapper applied to the backing file
// (nil = none). It exists for the crash-consistency tests, which write
// journals through internal/faultio injectors.
func CreateVia(path string, wrap WrapSink) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Writer{f: wrapSink(f, wrap), path: path}, nil
}

// Stream returns a Writer that appends sealed records to w instead of a
// file: a shard worker streams its records to the supervisor over its
// stdout this way. A pipe has nothing to fsync, so Sync is a no-op; the
// sink cannot truncate or seek, and Close leaves w open. wrap decorates
// the sink as in CreateVia (nil = none).
func Stream(w io.Writer, wrap WrapSink) *Writer {
	return &Writer{f: wrapSink(streamSink{w}, wrap), path: "stream"}
}

// streamSink is the Sink behind Stream.
type streamSink struct{ io.Writer }

func (streamSink) Sync() error                    { return nil }
func (streamSink) Truncate(int64) error           { return errors.ErrUnsupported }
func (streamSink) Seek(int64, int) (int64, error) { return 0, errors.ErrUnsupported }
func (streamSink) Close() error                   { return nil }

// Resume parses the journal at path, truncates any corrupt tail (the
// torn line of a crash), and returns the parsed log plus a writer
// positioned at the end of the valid prefix. It is the one call a
// resuming CLI needs.
func Resume(path string) (*Log, *Writer, error) { return ResumeVia(path, nil) }

// ResumeVia is Resume with a sink wrapper applied to the write handle
// (nil = none); parsing always reads the real file. Every repair Resume
// performs — truncating the torn tail, restoring a missing final
// newline — flows through the wrapped sink, so fault injectors exercise
// the repair path too.
func ResumeVia(path string, wrap WrapSink) (*Log, *Writer, error) {
	log, validLen, tornNewline, err := read(path)
	if err != nil {
		return nil, nil, err
	}
	raw, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	f := wrapSink(raw, wrap)
	fail := func(err error) (*Log, *Writer, error) {
		//asmp:allow journalerr best-effort close on an already-failed resume; the original error is the one to surface
		f.Close()
		return nil, nil, err
	}
	// validLen never exceeds the real file size (read accounts bytes
	// exactly, newline or not), so this only ever shrinks the file —
	// extending it would pad the journal with NUL bytes and fuse the
	// next append onto the old record.
	if err := f.Truncate(validLen); err != nil {
		return fail(fmt.Errorf("journal: truncating corrupt tail: %w", err))
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		return fail(fmt.Errorf("journal: %w", err))
	}
	if tornNewline {
		// The final record is complete and checksum-valid but its
		// trailing newline never reached the disk — the signature of a
		// single append torn one byte short. Repair it now so the next
		// append starts on a fresh line instead of fusing onto the
		// record.
		if _, err := f.Write([]byte{'\n'}); err != nil {
			return fail(fmt.Errorf("journal: repairing torn final newline: %w", err))
		}
		if err := f.Sync(); err != nil {
			return fail(fmt.Errorf("journal: repairing torn final newline: %w", err))
		}
	}
	return log, &Writer{f: f, path: path}, nil
}

// append seals and writes one record, fsyncing so the line survives a
// crash immediately after.
func (w *Writer) append(rec any) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		w.err = fmt.Errorf("journal: appending to %s: %w", w.path, os.ErrClosed)
		return w.err
	}
	line, err := Seal(rec)
	if err == nil {
		_, err = w.f.Write(append(line, '\n'))
	}
	if err == nil {
		err = w.f.Sync()
	}
	if err != nil {
		w.err = fmt.Errorf("journal: appending to %s: %w", w.path, err)
		return w.err
	}
	return nil
}

// WriteHeader appends the identity record.
func (w *Writer) WriteHeader(h Header) error {
	h.Kind, h.V, h.Sum = KindHeader, Version, ""
	return w.append(&h)
}

// WriteCell appends one completed cell.
func (w *Writer) WriteCell(c Cell) error {
	c.Kind, c.Sum = KindCell, ""
	return w.append(&c)
}

// WriteFigure appends one completed figure.
func (w *Writer) WriteFigure(f Figure) error {
	f.Kind, f.Sum = KindFigure, ""
	return w.append(&f)
}

// Err returns the first append failure, or nil.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Path returns the journal file path.
func (w *Writer) Path() string { return w.path }

// Close closes the sink: the file of a Create or Resume writer (every
// append already fsync'd its line); a Stream writer leaves its
// io.Writer open.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return w.err
	}
	err := w.f.Close()
	w.f = nil
	if w.err == nil && err != nil {
		w.err = fmt.Errorf("journal: closing %s: %w", w.path, err)
	}
	return w.err
}

// SetAside moves a journal that cannot be trusted out of the way so a
// fresh one can be written at its path, and returns where it went. The
// first set-aside targets path.damaged; if that already exists the
// suffix grows monotonically (path.damaged.1, .2, ...), so a journal
// that is damaged repeatedly never silently clobbers the evidence of
// an earlier damage.
func SetAside(path string) (string, error) {
	target := path + ".damaged"
	for n := 1; ; n++ {
		if _, err := os.Lstat(target); err != nil {
			// Missing (or unstattable — let the rename surface that).
			break
		}
		target = fmt.Sprintf("%s.damaged.%d", path, n)
	}
	if err := os.Rename(path, target); err != nil {
		return "", fmt.Errorf("journal: setting aside %s: %w", path, err)
	}
	return target, nil
}

// Read parses the journal at path without modifying it. A corrupt tail
// is tolerated (Log.Dropped counts the ignored lines); corruption
// followed by valid records is a *DamagedError.
func Read(path string) (*Log, error) {
	log, _, _, err := read(path)
	return log, err
}

// MaxLine bounds one journal line; figure records carry whole rendered
// tables, so this is generous.
const MaxLine = 8 << 20

// read parses path and additionally returns the byte length of the
// valid prefix (for tail truncation on resume) and whether the final
// valid record is missing its trailing newline (a torn single-syscall
// append; Resume repairs it).
//
// Byte accounting is exact: validLen counts the bytes each accepted
// line actually occupies in the file, so it can never exceed the real
// file size — a line torn before its newline contributes only the
// bytes present. The previous implementation charged every line a
// newline it might not have, pushing validLen one byte past EOF, which
// made Resume's Truncate *extend* the file with a NUL byte and fuse
// the next append onto the old record.
func read(path string) (log *Log, validLen int64, tornNewline bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()

	log = &Log{Path: path}
	var offset int64
	firstBad := -1
	var firstBadOff int64
	lineNo := 0
	br := bufio.NewReaderSize(f, 64<<10)
	for {
		raw, rerr := br.ReadBytes('\n')
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			return nil, 0, false, fmt.Errorf("journal: reading %s: %w", path, rerr)
		}
		if len(raw) > 0 {
			lineNo++
			if len(raw) > MaxLine {
				return nil, 0, false, fmt.Errorf("journal: reading %s: line %d exceeds %d bytes", path, lineNo, MaxLine)
			}
			terminated := raw[len(raw)-1] == '\n'
			lineStart := offset
			offset += int64(len(raw))
			line := strings.TrimSpace(string(raw))
			switch {
			case line == "":
				// Blank lines are harmless (and never extend the valid
				// prefix).
			default:
				rec, perr := ParseLine([]byte(line))
				if perr != nil {
					if firstBad < 0 {
						firstBad = lineNo
						firstBadOff = lineStart
					}
					log.Dropped++
					break
				}
				if firstBad >= 0 {
					return nil, 0, false, &DamagedError{Path: path, Line: firstBad, Offset: firstBadOff,
						Reason: fmt.Sprintf("corrupt record at line %d (byte offset %d) followed by valid records (damaged journal, not a crash tail)", firstBad, firstBadOff)}
				}
				switch r := rec.(type) {
				case *Header:
					if log.Header != nil {
						return nil, 0, false, &DamagedError{Path: path, Line: lineNo, Offset: lineStart,
							Reason: fmt.Sprintf("duplicate header at line %d (byte offset %d)", lineNo, lineStart)}
					}
					if len(log.Cells)+len(log.Figures) > 0 {
						return nil, 0, false, &DamagedError{Path: path, Line: lineNo, Offset: lineStart,
							Reason: fmt.Sprintf("header at line %d (byte offset %d) after data records", lineNo, lineStart)}
					}
					log.Header = r
				case *Cell:
					log.Cells = append(log.Cells, *r)
				case *Figure:
					log.Figures = append(log.Figures, *r)
				}
				validLen = offset
				tornNewline = !terminated
			}
		}
		if errors.Is(rerr, io.EOF) {
			return log, validLen, tornNewline, nil
		}
	}
}

// ParseLine decodes and checksum-verifies one record line (without its
// newline), returning a *Header, *Cell or *Figure. It is the one
// decoder for journal files and for the record streams shard workers
// send their supervisor; a line longer than MaxLine is refused.
func ParseLine(line []byte) (any, error) {
	if len(line) > MaxLine {
		return nil, fmt.Errorf("journal: record of %d bytes exceeds %d", len(line), MaxLine)
	}
	var probe struct {
		Kind string `json:"kind"`
		V    int    `json:"v"`
	}
	if err := json.Unmarshal(line, &probe); err != nil {
		return nil, fmt.Errorf("journal: bad record: %w", err)
	}
	var rec any
	switch probe.Kind {
	case KindHeader:
		if probe.V > Version {
			return nil, fmt.Errorf("journal: schema v%d newer than supported v%d", probe.V, Version)
		}
		rec = new(Header)
	case KindCell:
		rec = new(Cell)
	case KindFigure:
		rec = new(Figure)
	default:
		return nil, fmt.Errorf("journal: unknown record kind %q", probe.Kind)
	}
	if err := json.Unmarshal(line, rec); err != nil {
		return nil, err
	}
	if !Sealed(line) {
		return nil, fmt.Errorf("journal: %s checksum mismatch", probe.Kind)
	}
	return rec, nil
}
