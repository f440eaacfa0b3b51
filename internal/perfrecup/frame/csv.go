package frame

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteCSV serializes the frame with a header row.
func (f *Frame) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(f.Columns()); err != nil {
		return err
	}
	row := make([]string, f.NCols())
	for r := 0; r < f.NRows(); r++ {
		for i, c := range f.cols {
			switch c.dtype {
			case Int:
				row[i] = strconv.FormatInt(c.ints[r], 10)
			case Float:
				row[i] = strconv.FormatFloat(c.flts[r], 'g', -1, 64)
			case String:
				row[i] = c.strs[r]
			default:
				row[i] = strconv.FormatBool(c.bools[r])
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
