// Command uhmart manages the persistent artifact store that uhmd's
// -store-dir points at: the operations tooling for shipping built artifacts
// between machines without shipping the build.
//
// Subcommands:
//
//	uhmart ls     -store DIR                  list containers, hottest first
//	uhmart verify -store DIR [PREFIX...]      verify containers end to end
//	uhmart export -store DIR -o FILE [PREFIX...]   write containers to a bundle
//	uhmart import -store DIR FILE...          load bundles into the store
//
// PREFIX selects containers by hex source-hash prefix; no prefix selects all.
// A bundle is a plain concatenation of containers, so bundles can themselves
// be concatenated.  Every import re-verifies each container's content hash
// before it is admitted; verify goes further and records each stored trace
// afresh from its DIR program, proving that the trace a warm start binds
// without executing the program is the one this build would record and
// price.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"uhm/internal/core"
	"uhm/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
	if err := dispatch(os.Args[1], os.Args[2:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "uhmart:", err)
		os.Exit(1)
	}
}

const usage = `usage:
  uhmart ls     -store DIR                      list containers, hottest first
  uhmart verify -store DIR [PREFIX...]          verify containers end to end
  uhmart export -store DIR -o FILE [PREFIX...]  write containers to a bundle
  uhmart import -store DIR FILE...              load bundles into the store
`

// dispatch routes one subcommand; tests drive it directly with an argument
// vector and a capture buffer.
func dispatch(cmd string, args []string, out io.Writer) error {
	switch cmd {
	case "ls":
		return cmdLs(args, out)
	case "verify":
		return cmdVerify(args, out)
	case "export":
		return cmdExport(args, out)
	case "import":
		return cmdImport(args, out)
	case "help", "-h", "--help":
		fmt.Fprint(out, usage)
		return nil
	}
	return fmt.Errorf("unknown subcommand %q\n%s", cmd, usage)
}

// openStore parses the common -store flag (plus any extra flags the caller
// bound on fs) and opens the store.
func openStore(fs *flag.FlagSet, args []string) (*store.Store, []string, error) {
	storeDir := fs.String("store", "", "artifact store directory")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if *storeDir == "" {
		return nil, nil, fmt.Errorf("-store is required")
	}
	st, err := store.Open(*storeDir)
	if err != nil {
		return nil, nil, err
	}
	return st, fs.Args(), nil
}

// selectEntries filters the listing by hex source-hash prefixes (empty
// selects everything).  An unmatched prefix is an error — a typo must not
// silently export or verify nothing.
func selectEntries(st *store.Store, prefixes []string) ([]store.Entry, error) {
	entries, err := st.List()
	if err != nil {
		return nil, err
	}
	if len(prefixes) == 0 {
		return entries, nil
	}
	var out []store.Entry
	for _, prefix := range prefixes {
		matched := false
		for _, e := range entries {
			if strings.HasPrefix(hex.EncodeToString(e.Hash[:]), strings.ToLower(prefix)) {
				out = append(out, e)
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("no container matches prefix %q", prefix)
		}
	}
	return out, nil
}

func cmdLs(args []string, out io.Writer) error {
	st, rest, err := openStore(flag.NewFlagSet("uhmart ls", flag.ContinueOnError), args)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("ls takes no positional arguments (got %q)", rest)
	}
	entries, err := st.List()
	if err != nil {
		return err
	}
	var total int64
	for _, e := range entries {
		fmt.Fprintf(out, "%s  %-5s  %8d B  %s\n",
			hex.EncodeToString(e.Hash[:])[:16], e.Level, e.Bytes,
			e.ModTime.UTC().Format(time.RFC3339))
		total += e.Bytes
	}
	fmt.Fprintf(out, "%d containers, %d bytes\n", len(entries), total)
	return nil
}

func cmdVerify(args []string, out io.Writer) error {
	st, prefixes, err := openStore(flag.NewFlagSet("uhmart verify", flag.ContinueOnError), args)
	if err != nil {
		return err
	}
	entries, err := selectEntries(st, prefixes)
	if err != nil {
		return err
	}
	failed := 0
	for _, e := range entries {
		short := hex.EncodeToString(e.Hash[:])[:16]
		if err := verifyEntry(st, e); err != nil {
			failed++
			fmt.Fprintf(out, "FAIL  %s  %-5s  %v\n", short, e.Level, err)
			continue
		}
		fmt.Fprintf(out, "ok    %s  %-5s\n", short, e.Level)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d containers failed verification", failed, len(entries))
	}
	fmt.Fprintf(out, "%d containers verified\n", len(entries))
	return nil
}

// verifyEntry checks one container end to end: the content hash and
// structure (Decode), the rehydration path (Artifact), and the stored trace,
// which must equal a fresh recording at the default degree — PCs, output,
// peak depth, semantic cycles and compiled statistics.
func verifyEntry(st *store.Store, e store.Entry) error {
	data, err := st.GetRaw(e.Hash, e.Level)
	if err != nil {
		return err
	}
	img, err := store.Decode(data)
	if err != nil {
		return err
	}
	art, err := img.Artifact()
	if err != nil {
		return fmt.Errorf("rehydrate: %w", err)
	}
	stored := img.Snap.Trace
	if stored == nil {
		return nil
	}
	pp, err := art.Predecoded(core.DefaultConfig().Degree)
	if err != nil {
		return fmt.Errorf("predecode: %w", err)
	}
	fresh, err := pp.RecordTrace()
	if err != nil {
		return fmt.Errorf("record trace: %w", err)
	}
	if !slices.Equal(fresh.PCs, stored.PCs) || !slices.Equal(fresh.Output, stored.Output) ||
		fresh.PeakDepth != stored.PeakDepth || fresh.SemanticCycles != stored.SemanticCycles ||
		fresh.Compiled != stored.Compiled {
		return fmt.Errorf("stored trace differs from a fresh recording")
	}
	return nil
}

func cmdExport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("uhmart export", flag.ContinueOnError)
	output := fs.String("o", "", "bundle file to write (\"-\" = stdout)")
	st, prefixes, err := openStore(fs, args)
	if err != nil {
		return err
	}
	if *output == "" {
		return fmt.Errorf("-o is required")
	}
	entries, err := selectEntries(st, prefixes)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("store is empty, nothing to export")
	}
	var bundle []byte
	for _, e := range entries {
		data, err := st.GetRaw(e.Hash, e.Level)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", hex.EncodeToString(e.Hash[:])[:16], e.Level, err)
		}
		bundle = append(bundle, data...)
	}
	if *output == "-" {
		if _, err := out.Write(bundle); err != nil {
			return err
		}
		return nil
	}
	if err := os.WriteFile(*output, bundle, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "exported %d containers (%d bytes) to %s\n", len(entries), len(bundle), *output)
	return nil
}

func cmdImport(args []string, out io.Writer) error {
	st, files, err := openStore(flag.NewFlagSet("uhmart import", flag.ContinueOnError), args)
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("import requires at least one bundle file")
	}
	imported := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		containers, err := store.SplitBundle(data)
		if err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		for i, c := range containers {
			img, err := st.PutRaw(c)
			if err != nil {
				return fmt.Errorf("%s: container %d: %w", file, i, err)
			}
			fmt.Fprintf(out, "imported %s  %-5s  %s\n",
				hex.EncodeToString(img.SourceHash[:])[:16], img.Level(), img.Name())
			imported++
		}
	}
	fmt.Fprintf(out, "%d containers imported\n", imported)
	return nil
}
