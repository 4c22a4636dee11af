package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// ReadCSV parses a table from CSV. The first record is the header. Empty
// fields become nulls. The table name is taken from the name argument.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // tolerate ragged rows; we pad/truncate below
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("read csv header for %q: %w", name, err)
	}
	t := New(name, header...)
	width := len(header)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("read csv row for %q: %w", name, err)
		}
		row := make([]string, width)
		for i := 0; i < width && i < len(rec); i++ {
			row[i] = strings.TrimSpace(rec[i])
		}
		t.Rows = append(t.Rows, row)
	}
	t.InferKinds()
	return t, nil
}

// ReadCSVFile loads a table from a CSV file; the table is named after the
// file's base name without extension.
func ReadCSVFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base := filepath.Base(path)
	name := strings.TrimSuffix(base, filepath.Ext(base))
	return ReadCSV(name, f)
}

// WriteCSV writes the table as CSV with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the table to the given path, creating parent
// directories as needed.
func (t *Table) WriteCSVFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
