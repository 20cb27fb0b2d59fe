/* The motivating case for the static corroboration gate: a 16-element
 * array traced with an input that touches only the first few elements.
 * Dynamic bounds recovery sees three elements; the static interpreter
 * proves the whole array is reachable.
 *
 *   python -m repro compile examples/undertrace.c -o under.img.json
 *   python -m repro check under.img.json --input int:3
 *     -> coverage-gap warning + widening suggestion (check reports the
 *        unwidened layout the trace alone recovers)
 *   python -m repro check under.img.json --input int:3 --widen
 *     -> the gap is gone: the widened layout covers the full array
 *   python -m repro recompile under.img.json -o rec.img.json --input int:3
 *     -> recompile always widens, so rec.img.json matches the original
 *        on every n up to 16
 *
 * (A path-insensitive uninit-read warning remains either way: on the
 * zero-trip path n <= 0 the array is formally never written.)
 */
int main() {
    int buf[16];
    int i;
    int n;
    n = read_int();
    for (i = 0; i < n; i++) buf[i] = i * 7;
    int s = 0;
    for (i = 0; i < n; i++) s += buf[i];
    printf("s=%d\n", s);
    return 0;
}
