// Command finq parses, evaluates, and analyzes relational-calculus queries
// over the library's domains.
//
// Usage:
//
//	finq domains
//	finq decide -domain <name> "<sentence>"
//	finq eval -domain <name> [-state file.json] [-mode active|enumerate] "<formula>"
//	finq translate -domain <name> -state file.json "<formula>"
//	finq saferange -state file.json "<formula>"
//
// State files are JSON: {"relations": {"F": [["adam","abel"]]},
// "constants": {"c": "1"}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"

	finq "repro"
	"repro/internal/cliutil"
	"repro/internal/obs/qstats"
)

func main() {
	args, finish, err := cliutil.Setup("finq", os.Args[1:], true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "finq:", err)
		os.Exit(1)
	}
	defer finish()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "version", "-version", "--version":
		fmt.Println(finq.Version())
	case "stats":
		err = runStats(args[1:])
	case "domains":
		for _, d := range finq.Domains() {
			fmt.Printf("%-12s %s\n", d.Name, d.Doc)
		}
	case "decide":
		err = runDecide(args[1:])
	case "eval":
		err = runEval(args[1:])
	case "translate":
		err = runTranslate(args[1:])
	case "saferange":
		err = runSafeRange(args[1:])
	case "algebra":
		err = runAlgebra(args[1:])
	case "repl":
		err = runREPL(args[1:])
	case "trace":
		err = runTrace(args[1:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "finq:", err)
		finish()
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  finq domains
  finq decide    -domain <name> "<sentence>"
  finq eval      -domain <name> [-state file.json] [-mode active|enumerate] [-profile] [-json] "<formula>"
  finq translate -domain <name> -state file.json "<formula>"
  finq saferange -state file.json "<formula>"
  finq algebra   -domain <name> -state file.json "<safe-range formula>"
  finq repl      -domain <name> [-state file.json]
  finq stats     [-queries] [-by latency|count|selectivity|allocs] [-k n] [-json] [-import file] [-export file]
  finq trace     stitch [-out file] <dump.jsonl> ...
  finq version

global flags:
  -debug-addr <host:port>  serve /debug/obs, /metrics, /debug/vars, /debug/pprof/
  -trace-out <file>        record execution and write a Chrome trace on exit
  -log-level <level>       debug|info|warn|error for structured logs (default info)
  -log-format <fmt>        text|json log output (default text)
  -cache[=on|off]          memoize decision-procedure calls (default on)`)
}

// runStats prints process metrics (the default, as before) or, with
// -queries, the per-query stats registry. -import merges a saved snapshot
// into the registry first and -export writes the merged snapshot back
// out, so saved stats files can be inspected and re-saved offline:
//
//	finq stats -import run1.json -queries -by selectivity    # inspect
//	finq stats -import run1.json -export merged.json         # re-save
func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	queries := fs.Bool("queries", false, "print per-query stats instead of process metrics")
	by := fs.String("by", "latency", "order for -queries: latency, count, selectivity, or allocs")
	k := fs.Int("k", 20, "top-K entries for -queries (<= 0 for all)")
	importPath := fs.String("import", "", "merge a saved per-query stats snapshot before printing")
	exportPath := fs.String("export", "", `write the per-query stats snapshot JSON to a file ("-" for stdout)`)
	jsonOut := fs.Bool("json", false, "print -queries output as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg := qstats.Default()
	if *importPath != "" {
		data, err := os.ReadFile(*importPath)
		if err != nil {
			return err
		}
		if err := reg.ImportJSON(data); err != nil {
			return err
		}
	}
	if *exportPath != "" {
		out := append(reg.JSON(), '\n')
		if *exportPath == "-" {
			os.Stdout.Write(out)
		} else if err := os.WriteFile(*exportPath, out, 0o644); err != nil {
			return err
		}
	}
	if *queries {
		entries, err := reg.TopK(*by, *k)
		if err != nil {
			return err
		}
		if *jsonOut {
			data, err := json.MarshalIndent(entries, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(data))
			return nil
		}
		qstats.WriteTable(os.Stdout, entries)
		return nil
	}
	if *exportPath != "" {
		return nil
	}
	os.Stdout.Write(append(finq.StatsJSON(), '\n'))
	return nil
}

func loadDomainAndFormula(fs *flag.FlagSet, args []string) (finq.DomainInfo, *finq.Formula, *flag.FlagSet, error) {
	domainName := fs.String("domain", "eq", "domain name (see `finq domains`)")
	if err := fs.Parse(args); err != nil {
		return finq.DomainInfo{}, nil, nil, err
	}
	if fs.NArg() != 1 {
		return finq.DomainInfo{}, nil, nil, fmt.Errorf("expected exactly one formula argument")
	}
	d, err := finq.Lookup(*domainName)
	if err != nil {
		return finq.DomainInfo{}, nil, nil, err
	}
	f, err := d.Parse(fs.Arg(0))
	if err != nil {
		return finq.DomainInfo{}, nil, nil, err
	}
	return d, f, fs, nil
}

func loadState(d finq.DomainInfo, path string) (*finq.State, error) {
	if path == "" {
		return finq.NewState(finq.MustScheme(map[string]int{})), nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return finq.ParseState(d, data)
}

func runDecide(args []string) error {
	fs := flag.NewFlagSet("decide", flag.ContinueOnError)
	d, f, _, err := loadDomainAndFormula(fs, args)
	if err != nil {
		return err
	}
	v, err := finq.Decide(d, f)
	if err != nil {
		return err
	}
	fmt.Println(v)
	return nil
}

func runEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	domainName := fs.String("domain", "eq", "domain name")
	statePath := fs.String("state", "", "state JSON file")
	mode := fs.String("mode", "active", "evaluation mode: active or enumerate")
	rows := fs.Int("rows", 100, "row budget for -mode enumerate")
	profile := fs.Bool("profile", false, "print the EXPLAIN profile alongside the answer")
	jsonOut := fs.Bool("json", false, "print the result as JSON (the finqd /v1/eval wire format)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one formula argument")
	}
	d, err := finq.Lookup(*domainName)
	if err != nil {
		return err
	}
	f, err := d.Parse(fs.Arg(0))
	if err != nil {
		return err
	}
	st, err := loadState(d, *statePath)
	if err != nil {
		return err
	}
	req := finq.Request{Domain: d.Name, State: st, Formula: f, Profile: *profile}
	switch *mode {
	case "active":
		req.Mode = finq.ModeActive
	case "enumerate":
		budget := finq.DefaultBudget
		budget.Rows = *rows
		req.Mode, req.Budget = finq.ModeEnumerate, &budget
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	// Ctrl-C cancels the evaluation; the rows found so far still print,
	// marked partial, exactly as a finqd deadline would return them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := finq.Eval(ctx, req)
	if err != nil {
		return err
	}
	if *jsonOut {
		data, err := json.MarshalIndent(finq.EncodeResult(d, res), "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	if res.Profile != nil {
		fmt.Print(res.Profile.Text())
	}
	ans := res.Answer
	fmt.Printf("free variables: %v\n", ans.Vars)
	for _, row := range ans.Rows.Tuples() {
		fmt.Println(" ", row)
	}
	fmt.Printf("%d rows, complete=%v\n", ans.Rows.Len(), ans.Complete)
	if res.Partial {
		fmt.Printf("partial result (stopped: %s)\n", res.Stopped)
	}
	return nil
}

func runTranslate(args []string) error {
	fs := flag.NewFlagSet("translate", flag.ContinueOnError)
	domainName := fs.String("domain", "eq", "domain name")
	statePath := fs.String("state", "", "state JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one formula argument")
	}
	d, err := finq.Lookup(*domainName)
	if err != nil {
		return err
	}
	f, err := d.Parse(fs.Arg(0))
	if err != nil {
		return err
	}
	st, err := loadState(d, *statePath)
	if err != nil {
		return err
	}
	pure, err := finq.Translate(d, st, f)
	if err != nil {
		return err
	}
	fmt.Println(pure)
	return nil
}

func runSafeRange(args []string) error {
	fs := flag.NewFlagSet("saferange", flag.ContinueOnError)
	domainName := fs.String("domain", "eq", "domain name")
	statePath := fs.String("state", "", "state JSON file (supplies the scheme)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one formula argument")
	}
	d, err := finq.Lookup(*domainName)
	if err != nil {
		return err
	}
	f, err := d.Parse(fs.Arg(0))
	if err != nil {
		return err
	}
	st, err := loadState(d, *statePath)
	if err != nil {
		return err
	}
	report := finq.SafeRange(st.Scheme(), f)
	if report.Safe {
		fmt.Println("safe-range (hence domain-independent and finite)")
		return nil
	}
	fmt.Printf("not safe-range; unranged variables: %v\n", report.Unranged)
	return nil
}
