package textfmt

import (
	"strings"
	"testing"
)

var toy = Format{Name: "toy", Headers: []string{"#toy v1", "#toy v2"}, Key: "#k"}

// read decodes in as the toy format and returns the version, key and rows
// it saw.
func read(f Format, in string) (version int, key []string, rows [][]string, err error) {
	version = -1
	err = f.Read(strings.NewReader(in), func(v int, k []string) error {
		version, key = v, k
		return nil
	}, func(fields []string) error {
		rows = append(rows, fields)
		return nil
	})
	return version, key, rows, err
}

func TestReadAccepts(t *testing.T) {
	v, key, rows, err := read(toy, "# note\n\n  #toy v2  \n# c\n#k 1 2\n\n1 2\n 3\t4 \n")
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || strings.Join(key, ",") != "1,2" || len(rows) != 2 || rows[1][1] != "4" {
		t.Fatalf("version %d key %q rows %q", v, key, rows)
	}
	// A header and key with no rows still reach head.
	if v, key, _, err := read(toy, "#toy v1\n#k\n"); err != nil || v != 0 || len(key) != 0 {
		t.Fatalf("header only: version %d key %q err %v", v, key, err)
	}
	// Only a keyless format reads an empty input, as an empty table.
	keyless := Format{Name: "keyless", Headers: []string{"#keyless v1"}}
	if v, _, rows, err := read(keyless, ""); err != nil || v != -1 || rows != nil {
		t.Fatalf("empty keyless input: version %d rows %q err %v", v, rows, err)
	}
}

func TestReadRejects(t *testing.T) {
	for name, c := range map[string]struct {
		in   string
		line string // the line number the error must name, if any
	}{
		"empty input with a key": {in: ""},
		"comments only":          {in: "# note\n\n"},
		"row before header":      {in: "1 2\n#toy v1\n#k\n", line: "line 1:"},
		"key before header":      {in: "#k 1\n#toy v1\n", line: "line 1:"},
		"second header":          {in: "#toy v1\n#k\n1\n#toy v2\n", line: "line 4:"},
		"second key":             {in: "#toy v1\n#k 1\n#k 2\n", line: "line 3:"},
		"malformed key":          {in: "#toy v1\n#kx 1\n", line: "line 2:"},
		"missing key":            {in: "#toy v1\n\n1 2\n", line: "line 3:"},
		"key after a row":        {in: "#toy v1\n#k\n1\n#k\n", line: "line 4:"},
		"line over 1 MB":         {in: "#toy v1\n#k\n" + strings.Repeat("1", maxLine+1) + "\n"},
	} {
		if _, _, _, err := read(toy, c.in); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), c.line) {
			t.Errorf("%s: error %q does not name %q", name, err, c.line)
		}
	}
}

func TestReadPrefixesCallbackErrors(t *testing.T) {
	err := toy.Read(strings.NewReader("#toy v1\n#k\n1\n\nx\n"), nil, func(fields []string) error {
		_, err := Ints(fields)
		return err
	})
	if err == nil || !strings.HasPrefix(err.Error(), "toy line 5: ") {
		t.Fatalf("got %v, want an error at toy line 5", err)
	}
}

func TestOpens(t *testing.T) {
	for in, want := range map[string]bool{
		"# note\n\n #toy v2\n1\n": true,
		"#k 1\n#toy v1\n":         true, // Read then reports the misplaced key
		"#other v1\n#toy v1\n":    true,
		"1\n#toy v1\n":            false,
		"":                        false,
	} {
		if got := toy.Opens([]byte(in)); got != want {
			t.Errorf("Opens(%q) = %v, want %v", in, got, want)
		}
	}
}
