// Command traceconv converts memory traces between the text and binary
// encodings of internal/trace, optionally gzip-compressing, and reports
// record and byte statistics — the middle stage of the
// tracegen | traceconv | hybrid2sim pipeline. Input encoding and
// compression are auto-detected; records stream straight from decoder to
// encoder, so conversion runs in constant memory at any trace size.
//
// Usage:
//
//	traceconv -format binary -gz -o mcf.htb.gz mcf.trace
//	tracegen -workload mcf | traceconv -format binary > mcf.htb
//	traceconv -stats mcf.htb.gz     # inspect without converting
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hybridmem/internal/config"
	"hybridmem/internal/memtypes"
	"hybridmem/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "traceconv:", err)
		os.Exit(1)
	}
}

// countingReader and countingWriter meter raw (compressed) bytes at the
// file boundary, on the outside of any gzip layer.
type countingReader struct {
	r io.Reader
	n uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += uint64(n)
	return n, err
}

type countingWriter struct {
	w io.Writer
	n uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += uint64(n)
	return n, err
}

func run() error {
	format := flag.String("format", "binary", "output encoding: text or binary")
	gz := flag.Bool("gz", false, "gzip-compress the output")
	out := flag.String("o", "", "output file (default stdout)")
	statsOnly := flag.Bool("stats", false, "decode and report statistics without writing a converted trace")
	flag.Parse()
	if flag.NArg() > 1 {
		return fmt.Errorf("at most one input file, got %d", flag.NArg())
	}
	if *statsOnly {
		var conflict []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "format", "gz", "o":
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("-stats writes no trace and conflicts with %s", strings.Join(conflict, " "))
		}
	}

	in := io.Reader(os.Stdin)
	name := "stdin"
	if flag.NArg() == 1 && flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
		name = flag.Arg(0)
	}
	outFormat, err := trace.ParseFormat(*format)
	if err != nil {
		return err
	}

	cr := &countingReader{r: in}
	dec, err := trace.NewDecoder(cr, config.Cores)
	if err != nil {
		return err
	}

	var sw *trace.StreamWriter
	var cw *countingWriter
	var file *os.File
	if !*statsOnly {
		w := io.Writer(os.Stdout)
		if *out != "" {
			file, err = os.Create(*out)
			if err != nil {
				return err
			}
			defer file.Close()
			w = file
		}
		cw = &countingWriter{w: w}
		sw = trace.NewStreamWriter(cw, outFormat, *gz)
	}

	var perCore [config.Cores]uint64
	var writes uint64
	var cores [1024]int
	var recs [1024]memtypes.Rec
	for {
		n, err := dec.DecodeBatch(cores[:], recs[:])
		for i, rec := range recs[:n] {
			perCore[cores[i]]++
			if rec.Write {
				writes++
			}
			if sw != nil {
				if err := sw.Append(cores[i], rec); err != nil {
					return err
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if sw != nil {
		if err := sw.Close(); err != nil {
			return err
		}
		if file != nil {
			if err := file.Close(); err != nil {
				return err
			}
		}
	}

	records := dec.Records()
	compressed := ""
	if dec.Compressed() {
		compressed = "+gzip"
	}
	fmt.Fprintf(os.Stderr, "traceconv: %s: %d records (%d writes), %s%s, %d bytes in",
		name, records, writes, dec.Format(), compressed, cr.n)
	if cw != nil {
		outCompressed := ""
		if *gz {
			outCompressed = "+gzip"
		}
		ratio := 0.0
		if cw.n > 0 {
			ratio = float64(cr.n) / float64(cw.n)
		}
		fmt.Fprintf(os.Stderr, " -> %s%s, %d bytes out (%.2fx)", outFormat, outCompressed, cw.n, ratio)
	}
	fmt.Fprintln(os.Stderr)
	for core, n := range perCore {
		if n > 0 {
			fmt.Fprintf(os.Stderr, "traceconv:   core %d: %d records\n", core, n)
		}
	}
	return nil
}
