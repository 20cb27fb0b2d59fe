/* The motivating case for the *interprocedural* corroboration gate: a
 * caller passes &buf to a callee, so every access to the array happens
 * in a different frame than the one that owns it.  Per-function
 * corroboration is blind here — main's own code never touches buf, and
 * fill's accesses are parameter-relative — so an under-tracing input
 * (n=3 of 8 elements) recovers a truncated variable without a single
 * intra-function finding.  The call-graph summary pass translates
 * fill's footprint back into main's frame and flags the split:
 *
 *   python -m repro compile examples/escape.c -o escape.img.json
 *   python -m repro check escape.img.json --input int:3
 *     -> escaped-split error naming the fn_* -> fn_* call chain (the
 *        per-function pass alone reports nothing here)
 *   python -m repro check escape.img.json --input int:8 --strict
 *     -> clean: the trace covered everything the callee can reach
 *   python -m repro recompile escape.img.json -o rec.img.json --input int:3
 *     -> recompile always widens main's buf over fill's footprint (check
 *        reports the unwidened layout), so rec.img.json matches the
 *        original on every n up to 8
 *
 * (fill is recursive so the -O3 personality cannot inline it away —
 * which also makes it a one-node SCC in the summary call graph.)
 */
int fill(int *p, int i, int n) {
    if (i >= n) return 0;
    p[i] = i * 3;
    return p[i] + fill(p, i + 1, n);
}

int main() {
    int buf[8];
    int n = read_int();
    int s = fill(buf, 0, n);
    printf("s=%d\n", s);
    return 0;
}
