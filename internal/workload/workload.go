package workload

import (
	"fmt"
	"sort"

	"uhm/internal/compile"
	"uhm/internal/dir"
	"uhm/internal/hlr"
)

// sources maps workload names to MiniLang source text.
var sources = map[string]string{
	// loopsum: a single tight loop; the best case for a DTB ("If the hit
	// ratio in the DTB were unity, as it will be while the DIR program is in
	// a tight loop").
	"loopsum": `
program loopsum;
var i, sum, n;
begin
  n := 200;
  i := 1;
  sum := 0;
  while i <= n do
  begin
    sum := sum + i * i - (i - 1);
    i := i + 1
  end;
  print sum
end.`,

	// fib: recursive calls; exercises the call/return machinery and the
	// return-address stack of IU2.
	"fib": `
program fib;
var n;
proc fibo(k);
begin
  if k < 2 then return k
  else return fibo(k - 1) + fibo(k - 2)
end;
begin
  n := 14;
  print fibo(n)
end.`,

	// sieve: nested loops over an array; the classic benchmark of the era.
	"sieve": `
program sieve;
var flags[128], i, j, count;
begin
  i := 0;
  while i < 128 do
  begin
    flags[i] := 1;
    i := i + 1
  end;
  i := 2;
  count := 0;
  while i < 128 do
  begin
    if flags[i] = 1 then
    begin
      count := count + 1;
      j := i + i;
      while j < 128 do
      begin
        flags[j] := 0;
        j := j + i
      end
    end;
    i := i + 1
  end;
  print count
end.`,

	// matmul: triple-nested loops with indexed addressing on flattened
	// matrices.
	"matmul": `
program matmul;
var a[36], b[36], c[36], i, j, k, n, acc;
begin
  n := 6;
  i := 0;
  while i < n * n do
  begin
    a[i] := i + 1;
    b[i] := 2 * i - 3;
    c[i] := 0;
    i := i + 1
  end;
  i := 0;
  while i < n do
  begin
    j := 0;
    while j < n do
    begin
      acc := 0;
      k := 0;
      while k < n do
      begin
        acc := acc + a[i * n + k] * b[k * n + j];
        k := k + 1
      end;
      c[i * n + j] := acc;
      j := j + 1
    end;
    i := i + 1
  end;
  print c[0];
  print c[n * n - 1];
  acc := 0;
  i := 0;
  while i < n * n do
  begin
    acc := acc + c[i];
    i := i + 1
  end;
  print acc
end.`,

	// sort: bubble sort over a pseudo-random array; data-dependent branches.
	"sort": `
program sort;
var a[64], i, j, t, n, seed;
begin
  n := 64;
  seed := 7;
  i := 0;
  while i < n do
  begin
    seed := (seed * 137 + 19) mod 1009;
    a[i] := seed;
    i := i + 1
  end;
  i := 0;
  while i < n - 1 do
  begin
    j := 0;
    while j < n - 1 - i do
    begin
      if a[j] > a[j + 1] then
      begin
        t := a[j];
        a[j] := a[j + 1];
        a[j + 1] := t
      end;
      j := j + 1
    end;
    i := i + 1
  end;
  print a[0];
  print a[n / 2];
  print a[n - 1]
end.`,

	// callheavy: many small procedure activations with up-level addressing;
	// the working set is spread across several procedures.
	"callheavy": `
program callheavy;
var total, rounds;
proc work(n);
  var local;
  proc leaf(k);
  begin
    return k * 3 - 1
  end;
begin
  local := leaf(n) + leaf(n + 1);
  total := total + local
end;
proc gcd(x, y);
begin
  if y = 0 then return x;
  return gcd(y, x mod y)
end;
begin
  total := 0;
  rounds := 0;
  while rounds < 40 do
  begin
    call work(rounds);
    total := total + gcd(rounds * 12, 18 + rounds);
    rounds := rounds + 1
  end;
  print total
end.`,

	// ackermann: a small Ackermann evaluation — extremely call-intensive.
	"ackermann": `
program ackermann;
proc ack(m, n);
begin
  if m = 0 then return n + 1;
  if n = 0 then return ack(m - 1, 1);
  return ack(m - 1, ack(m, n - 1))
end;
begin
  print ack(2, 3);
  print ack(3, 3)
end.`,
}

// Names returns the workload names in sorted order.
func Names() []string {
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Source returns the MiniLang source of a workload.
func Source(name string) (string, error) {
	src, ok := sources[name]
	if !ok {
		return "", fmt.Errorf("workload: unknown workload %q (have %v)", name, Names())
	}
	return src, nil
}

// Parse parses a workload into a fresh HLR program.
func Parse(name string) (*hlr.Program, error) {
	src, err := Source(name)
	if err != nil {
		return nil, err
	}
	return hlr.Parse(src)
}

// CompileAt parses and compiles a workload at the given semantic level.
func CompileAt(name string, level compile.Level) (*dir.Program, error) {
	prog, err := Parse(name)
	if err != nil {
		return nil, err
	}
	return compile.Compile(prog, level)
}

// MustCompileAt is CompileAt for known-good built-in workloads.
func MustCompileAt(name string, level compile.Level) *dir.Program {
	p, err := CompileAt(name, level)
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	return p
}

// ReferenceOutput evaluates the workload with the HLR oracle, returning the
// expected program output.
func ReferenceOutput(name string) ([]int64, error) {
	prog, err := Parse(name)
	if err != nil {
		return nil, err
	}
	res, err := hlr.Evaluate(prog, hlr.EvalOptions{})
	if err != nil {
		return nil, err
	}
	return res.Output, nil
}
