package warp

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// The flag more than one command takes is declared here, once, so that
// its name and help text cannot drift apart: w2c and warpsim take
// -bounds.  Like the commands' own flags it registers on
// flag.CommandLine.

// BoundsFlag declares -bounds and returns the bound vector it fills:
// empty unless the flag is given, which makes the program argument a
// ${...} template (CompileTemplate) compiled at that vector.
func BoundsFlag() map[string]int64 {
	bounds := map[string]int64{}
	flag.Func("bounds", "treat the program as a ${...} template and compile it at this bound vector, e.g. n=32 or k=5,n=128",
		func(s string) error {
			for _, part := range strings.Split(s, ",") {
				name, val, ok := strings.Cut(part, "=")
				if !ok {
					return fmt.Errorf("bad bound %q (want name=value)", part)
				}
				n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
				if err != nil {
					return fmt.Errorf("bad bound %q: %v", part, err)
				}
				bounds[strings.TrimSpace(name)] = n
			}
			return nil
		})
	return bounds
}
