// Command kavbench regenerates the reproduction's experiment tables: the
// paper's figures and analytical claims, and the studies around them.
// kavbench -list names every experiment; README's command table lists the
// tool beside the others.
//
// Usage:
//
//	kavbench              # run every experiment
//	kavbench -exp e4,e7   # run a subset
//	kavbench -list        # list experiments
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"kat/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kavbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kavbench", flag.ContinueOnError)
	order := exp.Order()
	idRange := order[0] + ".." + order[len(order)-1]
	var (
		which = fs.String("exp", "all", "comma-separated experiment IDs ("+idRange+") or 'all'")
		list  = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg := exp.Registry()
	if *list {
		for _, id := range order {
			fmt.Fprintf(out, "%-4s %s\n", strings.ToUpper(id), exp.Describe(id))
		}
		return nil
	}

	var ids []string
	if *which == "all" {
		ids = order
	} else {
		for _, id := range strings.Split(*which, ",") {
			id = strings.ToLower(strings.TrimSpace(id))
			if _, ok := reg[id]; !ok {
				return fmt.Errorf("unknown experiment %q (want %s)", id, idRange)
			}
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		fmt.Fprintf(os.Stderr, "running %s...\n", strings.ToUpper(id))
		tab := reg[id]()
		if err := tab.Render(out); err != nil {
			return err
		}
	}
	return nil
}
