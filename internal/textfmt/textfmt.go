// Package textfmt is the one line scanner behind HARL's on-disk text
// formats: the Region Stripe Table (v1 and v2), the k-tier RST and the
// IOSIG trace. Each format is a header line, an optional keyed line, and
// whitespace-separated data rows; the rules they share live here so the
// decoders cannot drift apart:
//
//   - blank lines and '#' comments are skipped anywhere;
//   - the header must be the first line that is neither blank nor a
//     comment, and it may appear only once; only an input with no lines
//     at all may omit it, and then only in a format without a key;
//   - the keyed line (a line whose first field is the format's key) must
//     come after the header and before any row, may appear at most once,
//     and is required when the format has a key;
//   - lines may be up to 1 MB long;
//   - every error names the format and the line it was found on.
package textfmt

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// maxLine bounds one line.
const maxLine = 1 << 20

// Format describes one line-oriented text format.
type Format struct {
	Name    string   // error prefix, e.g. "harl: RST"
	Headers []string // the header line of each version, oldest first
	Key     string   // first field of the keyed line; "" if the format has none
}

// Read decodes r under the package rules. Before the first row (or at the
// end of a table without rows) it calls head, unless nil, with the index
// of the header in f.Headers and the keyed line's fields after the key;
// then it calls row with each data line's fields. A callback's error
// comes back prefixed with the format name and line number.
func (f Format) Read(r io.Reader, head func(version int, key []string) error, row func(fields []string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	lineNo, version := 0, -1
	var key []string
	sawKey, started := false, false
	at := func(err error) error { return fmt.Errorf("%s line %d: %w", f.Name, lineNo, err) }
	start := func() error {
		if started {
			return nil
		}
		started = true
		if f.Key != "" && !sawKey {
			return at(fmt.Errorf("missing %s line", f.Key))
		}
		if head != nil {
			if err := head(version, key); err != nil {
				return at(err)
			}
		}
		return nil
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if f.comment(line) {
			continue
		}
		if v := f.version(line); v >= 0 {
			if version >= 0 {
				return at(fmt.Errorf("second header %q", line))
			}
			version = v
			continue
		}
		if version < 0 {
			return at(fmt.Errorf("missing header %q", f.Headers))
		}
		fields := strings.Fields(line)
		if f.keyed(line) {
			switch {
			case fields[0] != f.Key:
				return at(fmt.Errorf("malformed %s line %q", f.Key, line))
			case sawKey:
				return at(fmt.Errorf("second %s line", f.Key))
			case started:
				return at(fmt.Errorf("%s line after the first row", f.Key))
			}
			sawKey, key = true, fields[1:]
			continue
		}
		if err := start(); err != nil {
			return err
		}
		if err := row(fields); err != nil {
			return at(err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %w", f.Name, err)
	}
	if version < 0 {
		if lineNo == 0 && f.Key == "" {
			return nil // an empty input is an empty table
		}
		return fmt.Errorf("%s: missing header %q", f.Name, f.Headers)
	}
	return start()
}

// Opens reports whether the first line of data that is neither blank, a
// comment nor a keyed line is one of f's headers: a reader of several
// formats can pick its decoder from that line alone.
func (f Format) Opens(data []byte) bool {
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); !f.comment(line) && !f.keyed(line) {
			return f.version(line) >= 0
		}
	}
	return false
}

// comment reports whether a trimmed line is blank or a '#' comment, that
// is neither a header nor the keyed line.
func (f Format) comment(line string) bool {
	return line == "" || strings.HasPrefix(line, "#") && f.version(line) < 0 && !f.keyed(line)
}

// keyed reports whether a trimmed line claims to be the keyed line.
func (f Format) keyed(line string) bool { return f.Key != "" && strings.HasPrefix(line, f.Key) }

// version returns the index of line in f.Headers, or -1.
func (f Format) version(line string) int {
	for i, h := range f.Headers {
		if line == h {
			return i
		}
	}
	return -1
}

// Ints parses every field as a base-10 int64.
func Ints(fields []string) ([]int64, error) {
	vs := make([]int64, len(fields))
	for i, s := range fields {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, err
		}
		vs[i] = v
	}
	return vs, nil
}
