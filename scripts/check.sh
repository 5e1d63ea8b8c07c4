#!/bin/sh
# One-command tier-1 gate: build, full test suite, bench smoke.
# The parallel layer is exercised at both pool sizes: --jobs 1 (the pure
# sequential path) and --jobs 4 (spawned domains) must both be green —
# results are bit-identical by contract, only wall-clock may differ.
# Run from anywhere inside the repository.
set -eu

cd "$(dirname "$0")/.."

echo "== no build artifacts in git =="
if [ -n "$(git ls-files _build 2>/dev/null)" ]; then
  echo "check.sh: _build/ artifacts are tracked by git; run" >&2
  echo "  git rm -r --cached _build" >&2
  exit 1
fi

# Values and modules under lib/ that only tests and benches call, kept
# because tests use them to check other code (and one documented model
# feature no verb drives yet). One entry a line: a module (`Mod`) or a value
# (`Mod.value`), then why the tests keep it. The caller steps below skip
# these, and fail on an entry that production now uses or that nothing
# under test/ or bench/ names, so the list holds only live oracles,
# fixtures and observers.
exempt_list() {
  cat <<'EOF'
Flow                       oracle: the flow table Trace.measure_f's matching is checked against
Nnls.kkt_violation         oracle: KKT residual the NNLS solutions are checked with
Estimator.state_equal      oracle: compares estimator states across checkpoint round trips
Model.predicted_ingress    oracle: closed-form ingress marginals of the IC model
Model.predicted_egress     oracle: closed-form egress marginals of the IC model
Sparse.of_dense            oracle: dense reference for the CSR kernels
Sparse.to_dense            oracle: dense reference for the CSR kernels
Error.rel_l2_series        oracle: per-bin errors of a whole series
Eig.reconstruct            oracle: rebuilds the matrix an eigendecomposition came from
Pca.reconstruct            oracle: rebuilds an observation from the fitted mean and components
Csv_io.read_table          oracle: reads back the CSV Series_out writes
Topologies.star            fixture: the smallest routed topology
Mat.of_arrays              fixture: literal matrices for the linalg tests
Snmp.ideal                 fixture: the noiseless SNMP poller
Shard.default_supervise    fixture: supervision settings for the fleet tests
Degrade.transition_count   observer: ladder transitions recorded so far
Feed.breaker_state         observer: the feed's circuit-breaker state
Shard.merged_counters      observer: fleet-wide counters after a run
Shard.health               observer: the fleet's health verdict after a run
Metrics.gauges             observer: gauge values, such as the engine's refit gauges
Metrics.histograms         observer: histogram snapshots, such as the engine's stage timings
Tomogravity.estimate       oracle: the one-shot solve estimate_with_plan is checked against
Entropy.residual           oracle: link-constraint residual the entropy estimates are checked with
Nnls.solve                 oracle: NNLS on an explicit design matrix, beside the Gram solvers
Mat.approx_equal           oracle: tolerance comparison of matrix results
Tm.approx_equal            oracle: tolerance comparison of traffic-matrix results
Sparse.get                 oracle: reads CSR entries back, as the routing checks do
Connection.forward_fraction oracle: per-connection f the measured f is checked against
Mat.add                    fixture: builds the positive-definite test matrices
Tm.scale                   fixture: scaled copies of test traffic matrices
Rng.copy                   fixture: replays a generator's stream
Rng.bool                   fixture: coin flips of the kernel oracles' generators
Sparse.nnz                 observer: stored entries after construction
Pool.rng                   observer: the per-slot RNG streams, checked distinct
Pool.stats                 observer: per-slot task and busy-time counts
Engine.params              observer: the (f, preference) in effect
Synth.from_measured        feature: the paper's measure-then-generate loop (docs/MODEL.md), no verb drives it yet
EOF
}
exempt_modules=$(exempt_list | awk '$1 !~ /\./ { print $1 }')

echo "== every lib/ module has a caller =="
# A module under lib/ counts as called when a .ml file under lib/, bin/,
# examples/ or perfbench/, other than its own, names it as `Module.`.
# Tests and benches do not count: a module only they reach is a kernel
# production never turns on, and belongs deleted. The match is by name, so
# a module sharing its name with another (Trace, Synth) passes on either.
called() {  # called <module> <own file>: does production name <module>.?
  grep -rlE --include='*.ml' "(^|[^A-Za-z0-9_'])$1\\." \
    lib bin examples perfbench | grep -qvxF "$2"
}
uncalled=""
for mli in lib/*/*.mli; do
  mod=$(basename "$mli" .mli | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  if printf '%s\n' "$exempt_modules" | grep -qxF "$mod"; then
    if called "$mod" "${mli%.mli}.ml"; then
      echo "check.sh: exempt module $mod is called by production; drop it from the exempt list" >&2
      exit 1
    fi
    if ! grep -rqE --include='*.ml' "(^|[^A-Za-z0-9_'])$mod\\." test bench; then
      echo "check.sh: exempt module $mod is named by nothing under test/ or bench/; delete it" >&2
      exit 1
    fi
  elif ! called "$mod" "${mli%.mli}.ml"; then
    uncalled="$uncalled $mod"
  fi
done
if [ -n "$uncalled" ]; then
  echo "check.sh: nothing outside their own files calls these lib/ modules:$uncalled" >&2
  exit 1
fi
echo "every lib/ module has a caller"

echo "== every lib/ value has a caller =="
# A `val` in a lib/*/*.mli counts as called when the .ml files under lib/,
# bin/, examples/ and perfbench/ use it somewhere besides its own `let`,
# with comments (nested ones included) and string and character literals
# stripped. A use is qualified, `Mod.value` (each file's `module X = ...Mod`
# aliases resolved, so `Ws.vec` is `Workspace.vec`), or bare, `value`, which
# counts only in the value's own module (and the modules its .ml defines
# inside it) or in a file that opens it (`open`, `let open ... in`,
# `include` or a local `Mod.( ... )`). Its own module counts, since dune's
# dev profile already fails the build on an unexported value nothing uses
# (warning 32). The members of a `module type` are not values and are
# skipped. Modules are told apart by name only, so two modules sharing a
# name (Trace, Synth) share their uses. Like the module step, it is a scan
# and needs no build.
strip() {  # strip <awk program> <file>...: runs the program on each line
  # with comments and string and character literals blanked out
  prog=$1
  shift
  awk '
    FNR == 1 { instr = 0; inquoted = 0; depth = 0; file_start() }
    {
      s = $0; out = ""; n = length(s)
      for (i = 1; i <= n; i++) {
        c = substr(s, i, 1)
        if (inquoted) {
          if (c == "|" && substr(s, i + 1, 1) == "}") { inquoted = 0; i++ }
          continue
        }
        if (instr) {
          if (c == "\\") i++
          else if (c == "\"") instr = 0
          continue
        }
        # Literals are skipped in comments too, as the OCaml lexer does, so
        # a "*)" inside one does not close the comment.
        if (c == "\047") {  # a character literal: skip it, quotes included
          if (substr(s, i + 1, 1) == "\\") {
            j = index(substr(s, i + 3), "\047")
            if (j > 0) { i += 2 + j; out = out " "; continue }
          } else if (substr(s, i + 2, 1) == "\047") { i += 2; out = out " "; continue }
        }
        if (c == "\"") { instr = 1; out = out " "; continue }
        if (c == "{" && substr(s, i + 1, 1) == "|") { inquoted = 1; i++; continue }
        if (c == "(" && substr(s, i + 1, 1) == "*") { depth++; i++; out = out " "; continue }
        if (depth > 0) {
          if (c == "*" && substr(s, i + 1, 1) == ")") { depth--; i++ }
          continue
        }
        out = out c
      }
      line(out)
    }
    END { file_end() }
    function module_of(path,   parts, k) {
      k = split(path, parts, "/"); sub(/\.mli?$/, "", parts[k])
      return toupper(substr(parts[k], 1, 1)) substr(parts[k], 2)
    }
    '"$prog" "$@"
}
uses() {  # uses <dir>...: "Q <Mod> <value>" per qualified use, "B <Mod> <value>"
  # per bare word for its file's own and opened modules
  strip '
    function file_start() {
      file_end()
      split("", alias); split("", opened)
      opened[module_of(FILENAME)] = 1
    }
    function line(out,   rest, m, p, parts, k) {
      text[++nl] = out
      rest = out
      while (match(rest, /module +[A-Z][A-Za-z0-9_]* *= *[A-Z][A-Za-z0-9_.]*/)) {
        m = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
        sub(/^module +/, "", m); split(m, p, / *= */)
        k = split(p[2], parts, "."); alias[p[1]] = parts[k]
      }
      rest = out
      while (match(rest, /module +[A-Z][A-Za-z0-9_]* *= *struct/)) {
        m = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
        sub(/^module +/, "", m); sub(/ *=.*/, "", m); opened[m] = 1
      }
      rest = out
      while (match(rest, /(^|[^A-Za-z0-9_.])(open!?|include) +[A-Z][A-Za-z0-9_.]*/)) {
        m = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
        sub(/^.*(open!?|include) +/, "", m); k = split(m, parts, "."); opened[parts[k]] = 1
      }
      rest = out
      while (match(rest, /[A-Z][A-Za-z0-9_]*\.[(\[{]/)) {
        m = substr(rest, RSTART, RLENGTH - 2); rest = substr(rest, RSTART + RLENGTH)
        opened[m] = 1
      }
    }
    function file_end(   k, rest, tok, before, parts, np, i, mod, o) {
      for (k = 1; k <= nl; k++) {
        rest = text[k]; before = ""
        while (match(rest, /[A-Za-z_][A-Za-z0-9_\047]*(\.[A-Za-z_][A-Za-z0-9_\047]*)*/)) {
          tok = substr(rest, RSTART, RLENGTH)
          before = RSTART > 1 ? substr(rest, RSTART - 1, 1) : before
          rest = substr(rest, RSTART + RLENGTH)
          if (before == "." || before == "#" || before == "`") { before = substr(tok, length(tok)); continue }
          np = split(tok, parts, ".")
          for (i = 1; i <= np && parts[i] ~ /^[A-Z]/; i++) ;
          if (i > np) { before = substr(tok, length(tok)); continue }
          if (i == 1) {
            for (o in opened) print "B", o, parts[1]
          } else {
            mod = parts[i - 1]
            if (mod in alias) mod = alias[mod]
            print "Q", mod, parts[i]
          }
          before = substr(tok, length(tok))
        }
      }
      nl = 0
    }' $(find "$@" -name '*.ml')
}
vals() {  # "V <Mod> <value>" per val of the lib/ .mli files, nested modules
  # under their own name, module type members left out
  strip '
    function file_start() { top = module_of(FILENAME); sp = 0; stack[0] = top }
    function file_end() { }
    function line(out,   rest, tok, m) {
      rest = out
      while (match(rest, /module +type +[A-Z][A-Za-z0-9_]*|module +[A-Z][A-Za-z0-9_]* *:|val +[a-z_][A-Za-z0-9_\047]*|[A-Za-z_][A-Za-z0-9_\047]*/)) {
        tok = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
        if (tok ~ /^module +type/) { pending = "-" }
        else if (tok ~ /^module /) { m = tok; sub(/^module +/, "", m); sub(/ *:$/, "", m); pending = m }
        else if (tok == "sig" || tok == "struct" || tok == "object") {
          stack[++sp] = pending == "" ? "-" : pending; pending = ""
        }
        else if (tok == "end") { if (sp > 0) sp-- }
        else if (tok ~ /^val /) {
          sub(/^val +/, "", tok)
          if (stack[sp] != "-") print "V", stack[sp], tok
        }
      }
    }' lib/*/*.mli
}
words() {  # words <tag> <dir>...: "<tag> <word>" for every word of the .ml files
  tag=$1
  shift
  strip '
    function file_start() { }
    function file_end() { }
    function line(out,   m, w, k) {
      gsub(/[^A-Za-z0-9_\047]+/, " ", out)
      m = split(out, w, " ")
      for (k = 1; k <= m; k++) print "'"$tag"'", w[k]
    }' $(find "$@" -name '*.ml')
}
value_errors=$(
  {
    uses lib bin examples perfbench
    words T test bench
    exempt_list | awk '{ print "E", $1 }'
    vals
  } | awk '
    $1 == "Q" || $1 == "B" { used[$2 "." $3]++; next }
    $1 == "T" { tested[$2]++; next }
    $1 == "E" { exempt[$2] = 1; next }
    $1 == "V" { nv++; vmod[nv] = $2; vname[nv] = $3 }
    END {
      for (k = 1; k <= nv; k++) {
        if (vmod[k] in exempt) continue
        name = vname[k]
        v = vmod[k] "." name
        called = used[v] > 1
        if (v in exempt) {
          seen[v] = 1
          if (called)
            print "exempt value " v " is now used by production; drop it from the exempt list"
          if (!(name in tested))
            print "exempt value " v " is named by nothing under test/ or bench/; delete it"
        } else if (!called) uncalled = uncalled " " v
      }
      for (v in exempt)
        if (v ~ /\./ && !(v in seen))
          print "exempt value " v " is declared in no lib/ .mli; drop it from the exempt list"
      if (uncalled != "")
        print "nothing in production calls these lib/ values:" uncalled
    }')
if [ -n "$value_errors" ]; then
  printf '%s\n' "$value_errors" | sed 's/^/check.sh: /' >&2
  exit 1
fi
echo "every lib/ value has a caller"

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== benchmark correctness checks =="
# One short pass of every perfbench workload. Its exit code is 0 only when
# every check passed: finite non-negative estimates, mid-run checkpoint
# save/load bit-identity, the determinism self-test, and bit-exact serve
# answers. Timings are printed but not gated here. Both stream workloads run
# again at seed 7: its refits fire the warm-refit basin guard more often,
# and its 81 ladder regimes (51 at seed 1) refreeze the plugin's weights
# more often, so the checkpoint and determinism checks see more frozen
# records.
#
# Each stream workload's `counts (per pass)` line is a function of the seed,
# and every field but alloc_kb_per_bin and state_mb is fixed by the
# estimates, so those fields are pinned: a change that moves estimates fails
# here. A change that moves them on purpose re-pins them and states why, as
# for test/cli.t.
perfbench() {  # perfbench <workload> <seed>: one pass, kept in $perfbench_out
  if ! perfbench_out=$(bash perfbench/run.sh --workload "$1" --seed "$2" \
      --seconds 1 --trace 0); then
    printf '%s\n' "$perfbench_out"
    echo "check.sh: perfbench correctness checks failed (see above)" >&2
    exit 1
  fi
  printf '%s\n' "$perfbench_out"
}
pin_counts() {  # pin_counts <workload> <seed> <pinned fields>
  got=$(printf '%s\n' "$perfbench_out" | awk -v wl="$1" '
    /^workload / { cur = $2; sub(/:$/, "", cur) }
    cur == wl && /counts \(per pass\):/ {
      sub(/^ *counts \(per pass\): /, "")
      n = split($0, f, ", ")
      out = ""
      for (i = 1; i <= n; i++)
        if (f[i] !~ /^(alloc_kb_per_bin|state_mb) /)
          out = out (out == "" ? "" : ", ") f[i]
      print out
      exit
    }')
  if [ "$got" != "$3" ]; then
    echo "check.sh: $1 at seed $2 moved its estimate-determined counts:" >&2
    echo "  pinned: $3" >&2
    echo "  got:    $got" >&2
    exit 1
  fi
  echo "counts pinned OK: $1 seed $2"
}
perfbench all 1
# stream-ic moved on purpose when a never-fitted engine began fitting over
# its first 24 bins (refit.count stays 21: the cold fit is one more, and
# the refit due after the last bin now runs in the next step, past the
# replay): at seed 1 it read fastpath 5974/0/74, ipf.iterations 43328,
# clamped 125659, rel_l2_mean 0.289908; at seed 7 5950/0/98, 42857,
# 128625, degrade.transitions 78, 0.291260.
pin_counts stream-ic 1 'bins 6048, refit.count 21, fastpath hit/update/refactorize 5973/0/75, ipf.iterations 43556, clamped 127904, degrade.transitions 53, rel_l2_mean 0.287420'
pin_counts stream-tomogravity 1 'bins 6048, refit.count 0, fastpath hit/update/refactorize 5997/0/51, ipf.iterations 33119, clamped 116834, degrade.transitions 50, rel_l2_mean 0.323513'
perfbench stream-ic 7
# Re-pinned with seed 1 for the cold fit at bin 24 (see above).
pin_counts stream-ic 7 'bins 6048, refit.count 21, fastpath hit/update/refactorize 5943/0/105, ipf.iterations 43173, clamped 127798, degrade.transitions 83, rel_l2_mean 0.288974'
perfbench stream-tomogravity 7
pin_counts stream-tomogravity 7 'bins 6048, refit.count 0, fastpath hit/update/refactorize 5967/0/81, ipf.iterations 33262, clamped 116430, degrade.transitions 80, rel_l2_mean 0.325074'

echo "== bench smoke (--jobs 1) =="
dune exec bench/main.exe -- --jobs 1 --repeat 1 --json /dev/null

echo "== bench smoke (--jobs 4, parallel group) =="
dune exec bench/main.exe -- --jobs 4 --repeat 1 --group parallel --json /dev/null

echo "== per-bin fast-path gates =="
# Gate:
#   1. the traced-off observability budget: a cached bin makes 4 stage
#      calls (ingest, prior, estimate, ipf: a noop span plus the stage
#      timer) and 3 bare noop spans (engine.step, tomogravity.solve,
#      tomogravity.clamp), so 4 x obs/stage-traced-off + 3 x obs/noop-span
#      is the per-bin cost the observability layer adds when tracing is
#      off. It must stay under 3% of stream/engine-per-bin (DESIGN.md
#      "Observability architecture"). The bench's "traced-off budget"
#      group times the three terms in alternating rounds in one process,
#      so each round's ratio compares readings of one moment; the gate
#      takes the median of the rounds' ratios. (Min-of-3 readings of each
#      term taken at different moments spread 1.65-3.28% on one host.)
#   2. no regression beyond 25% against the committed per-PR snapshot
#      results/BENCH_pr6_after.json (generous: absorbs machine-to-machine
#      variance while still catching a lost fast path, which is >5x).
#      The diff covers the stream/ group only: the obs/ span benches are
#      20-250 ns measurements whose run-to-run spread on a shared host
#      exceeds any threshold that would still mean something, and they
#      are already gated by the in-run relative check above, which is
#      immune to host-speed drift because both sides move together.
#      The streaming and observability groups run in ONE bench process
#      (min-of-3 per test), so they see the same heap and machine. The
#      engine-vs-engine pair (traced-off vs stream/engine-per-bin) is the
#      same code path twice and its gap is scheduler noise, so it is
#      printed but not gated.
budget_out=$(dune exec bench/main.exe -- --group traced-off --repeat 9)
printf '%s\n' "$budget_out"
ratios=$(printf '%s\n' "$budget_out" | awk '
  /^  round [0-9]+:/ {
    bin = 0; stage = 0; span = 0
    for (i = 1; i <= NF; i++) {
      v = $(i + 1)
      if ($i == "stream/engine-per-bin") bin = v
      if ($i == "obs/stage-traced-off") stage = v
      if ($i == "obs/noop-span") span = v
    }
    if (bin > 0) print (4 * stage + 3 * span) / bin
  }')
if [ -z "$ratios" ]; then
  echo "check.sh: traced-off budget rounds missing from bench output" >&2
  exit 1
fi
printf '%s\n' "$ratios" | awk '{ printf "  round %d: traced-off instrumentation %.2f%% of a bin\n", NR, 100 * $1 }'
median=$(printf '%s\n' "$ratios" | sort -g | awk '{ r[NR] = $1 }
  END { print (NR % 2 ? r[(NR + 1) / 2] : (r[NR / 2] + r[NR / 2 + 1]) / 2) }')
if ! awk -v m="$median" 'BEGIN { exit !(m <= 0.03) }'; then
  echo "check.sh: traced-off instrumentation (4 x obs/stage-traced-off +" >&2
  echo "  3 x obs/noop-span) exceeds 3% of stream/engine-per-bin in the" >&2
  echo "  median round ($(awk -v m="$median" 'BEGIN { printf "%.2f%%", 100 * m }'))" >&2
  exit 1
fi
echo "traced-off overhead OK: median round $(awk -v m="$median" 'BEGIN { printf "%.2f%%", 100 * m }') of a bin (bound 3%)"
fastpath_json=$(mktemp)
trap 'rm -f "$fastpath_json"' EXIT
dune exec bench/main.exe -- --group stream,obs --json "$fastpath_json"
scripts/bench_diff.sh results/BENCH_pr6_after.json "$fastpath_json" \
  --only stream/ --threshold 25

echo "== serving plane gates =="
# Measure the serve group (live server + open-loop loadgen, min-of-3) and
# gate:
#   1. the absolute acceptance bar: serve/qps-sustained is stored as ns
#      per answered query, so "sustains >= 10k queries/s" is exactly
#      "<= 100000".
#   2. no regression beyond 75% against the committed per-PR snapshot
#      results/BENCH_pr7_after.json (i.e. fail above 4x). The serve
#      numbers are wall-clock over a live socket on a possibly-shared
#      host, so run-to-run variance is far above the compute kernels' —
#      the generous threshold absorbs it while still catching a lost
#      fast path (an accidental O(n^2) encode or a serialization
#      bottleneck shows up as far more than 4x).
serve_json=$(mktemp)
trap 'rm -f "$fastpath_json" "$serve_json"' EXIT
dune exec bench/main.exe -- --group serve --json "$serve_json"
qps_ns=$(awk -F': ' '/"serve\/qps-sustained"/ { gsub(/[ ,]/, "", $2); print $2; exit }' "$serve_json")
if [ -z "$qps_ns" ]; then
  echo "check.sh: serve/qps-sustained missing from bench output" >&2
  exit 1
fi
if ! awk -v ns="$qps_ns" 'BEGIN { exit !(ns <= 100000) }'; then
  echo "check.sh: serving plane sustains under 10k queries/s" >&2
  echo "  (serve/qps-sustained = ${qps_ns} ns/query, bar is 100000)" >&2
  exit 1
fi
echo "sustained throughput OK: ${qps_ns} ns/query (bar: 100000 = 10k qps)"
scripts/bench_diff.sh results/BENCH_pr7_after.json "$serve_json" \
  --only serve/ --threshold 75

echo "== serve CLI smoke =="
# One deterministic serve+loadgen exchange over a Unix socket: the server
# replays 6 bins, answers exactly 31 requests (30 queries + the topology
# probe), drains, and flushes a resumable checkpoint.
serve_dir=$(mktemp -d)
trap 'rm -f "$fastpath_json" "$serve_json"; rm -rf "$serve_dir"' EXIT
dune exec bin/ic_lab.exe -- serve --dataset geant --weeks 1 --bins 6 \
  --socket "$serve_dir/serve.sock" --stop-after 31 \
  --checkpoint "$serve_dir/serve.ckpt" > "$serve_dir/serve.out" 2>&1 &
serve_pid=$!
i=0
while [ ! -S "$serve_dir/serve.sock" ] && [ "$i" -lt 100 ]; do
  sleep 0.1; i=$((i + 1))
done
loadgen_out=$(dune exec bin/ic_lab.exe -- loadgen \
  --socket "$serve_dir/serve.sock" --queries 30 --seed 42 --report counts)
wait "$serve_pid"
for line in 'shed +0' 'errors +0' 'transport +0'; do
  if ! printf '%s\n' "$loadgen_out" | grep -qE "^$line\$"; then
    echo "check.sh: serve smoke shed or lost queries:" >&2
    echo "$loadgen_out" >&2
    exit 1
  fi
done
if ! grep -q "drained after 31 answered requests" "$serve_dir/serve.out"; then
  echo "check.sh: serve smoke did not drain cleanly:" >&2
  cat "$serve_dir/serve.out" >&2
  exit 1
fi
echo "serve smoke OK: 31 answered, clean drain"

echo "== scenario gates =="
# Measure the scenario group (route rebuild, timeline compile, per-bin
# overlay replay) and gate against the committed per-PR snapshot
# results/BENCH_pr8_after.json. overlay-per-bin amortizes engine refits
# and epoch boundaries across a 48-bin replay, so its variance sits
# between the compute kernels' and the serve plane's — 50% absorbs that
# while still catching an accidental per-bin recompile (compile is ~5x
# a bin).
scenario_json=$(mktemp)
trap 'rm -f "$fastpath_json" "$serve_json" "$scenario_json"; rm -rf "$serve_dir"' EXIT
dune exec bench/main.exe -- --group scenario --json "$scenario_json"
scripts/bench_diff.sh results/BENCH_pr8_after.json "$scenario_json" \
  --only scenario/ --threshold 50

echo "== scenario CLI smoke =="
# The default seeded schedule with kill/resume: the verdict is a pure
# function of the seed, so these lines are exact (the same run is pinned
# in full in test/cli.t — this is the fast signature check).
scenario_dir=$(mktemp -d)
trap 'rm -f "$fastpath_json" "$serve_json" "$scenario_json"; rm -rf "$serve_dir" "$scenario_dir"' EXIT
scenario_out=$(dune exec bin/ic_lab.exe -- scenario --bins 96 \
  --drop-rate 0.02 --corrupt-rate 0.01 --kill-after 30 --resume \
  --checkpoint "$scenario_dir/sc.ckpt")
for line in \
  'resume check: estimates bit-identical to uninterrupted run: yes' \
  'detections 269 (tp 38, fp 231, fn 125): precision 0.141, recall 0.233' \
  'regret +0.041 (worst link at->si), underprovisioned: 0' \
  'topology.changes                 2'; do
  if ! printf '%s\n' "$scenario_out" | grep -qF "$line"; then
    echo "check.sh: scenario smoke missing '$line':" >&2
    printf '%s\n' "$scenario_out" >&2
    exit 1
  fi
done
echo "scenario smoke OK: bit-identical resume, pinned verdict"

echo "== resilience gates =="
# Measure the resilience group (gated per-bin step, breaker-wrapped feed
# polling, per-bin snapshot, robust detection) and gate against the
# committed per-PR snapshot results/BENCH_pr9_after.json. The gated
# per-bin path shares the stream kernels' variance profile; 50% absorbs
# machine noise while still catching a lost total cache (a per-bin
# window rescan is >1.5x) or a polymorphic-compare sort (>10x on the
# robust detector).
resilience_json=$(mktemp)
trap 'rm -f "$fastpath_json" "$serve_json" "$scenario_json" "$resilience_json"; rm -rf "$serve_dir" "$scenario_dir"' EXIT
dune exec bench/main.exe -- --group resilience --json "$resilience_json"
scripts/bench_diff.sh results/BENCH_pr9_after.json "$resilience_json" \
  --only resilience/ --threshold 50
# The self-healing machinery is strictly opt-in: the ungated per-bin
# number above (stream/engine-per-bin, gated by the pr6 snapshot) is the
# proof that the default path did not pay for it.

echo "== chaos smoke =="
# The full self-healing stack under fault injection, killed at bin 26 —
# inside the failed-link epoch (boundary at 24) but BEFORE the scheduled
# epoch refit fires (24 + 4) — so quarantine flags, breaker state, and
# the pending epoch-refit schedule all ride the checkpoint across the
# kill. The verdict is a pure function of the seed: resumed estimates
# must be bit-identical, and the robust detector must catch both
# injected events with time-to-detect 0.
chaos_out=$(dune exec bin/ic_lab.exe -- scenario --bins 96 \
  --drop-rate 0.02 --corrupt-rate 0.01 --self-heal --breaker 3 \
  --robust-scale --kill-after 26 --resume \
  --checkpoint "$scenario_dir/chaos.ckpt")
for line in \
  'self-heal: refit gating on (threshold 4, quarantine limit 6), epoch refit after 4 bins' \
  'feed breaker: open after 3 faulted bins, cooldown 6, fault fraction 0.50' \
  'resume check: estimates bit-identical to uninterrupted run: yes' \
  'scale: rolling-quantile (window 64, q 0.25)' \
  'ddos ie: detected at bin 48 (ttd 0)' \
  'flash-crowd be: detected at bin 72 (ttd 0)'; do
  if ! printf '%s\n' "$chaos_out" | grep -qF "$line"; then
    echo "check.sh: chaos smoke missing '$line':" >&2
    printf '%s\n' "$chaos_out" >&2
    exit 1
  fi
done
echo "chaos smoke OK: bit-identical resume through epoch-boundary kill, ttd 0 on both events"

echo "== shootout gates =="
# Measure the shootout group (single-bin estimate cost of every registered
# estimator family, calibrated state + reused plan) and gate against the
# committed per-PR snapshot results/BENCH_pr10_after.json. The group is
# built from the registry, so a family added later is automatically
# benched; 50% absorbs host noise while catching an accidentally
# quadratic stage (the families sit 6 us - 600 us apart, a lost plan
# reuse alone is >3x).
shootout_json=$(mktemp)
trap 'rm -f "$fastpath_json" "$serve_json" "$scenario_json" "$resilience_json" "$shootout_json"; rm -rf "$serve_dir" "$scenario_dir"' EXIT
dune exec bench/main.exe -- --group shootout --json "$shootout_json"
scripts/bench_diff.sh results/BENCH_pr10_after.json "$shootout_json" \
  --only shootout/ --threshold 50

echo "== shootout CLI smoke =="
# Cross-validated ranking on abilene with live timing: the ic family must
# not be dominated by the gravity family on BOTH axes (held-out error and
# per-bin latency) — the paper's core claim surviving as an executable
# gate. Gravity is always cheaper, so in practice this is "ic estimates
# better than gravity"; phrased as non-domination it stays meaningful
# even if a future fast path makes ic the cheaper one too.
shootout_out=$(dune exec bin/ic_lab.exe -- shootout --datasets abilene --stride 42)
ic_err=$(printf '%s\n' "$shootout_out" | awk '$1=="abilene" && $2=="ic" {print $3}')
ic_lat=$(printf '%s\n' "$shootout_out" | awk '$1=="abilene" && $2=="ic" {print $4}')
g_err=$(printf '%s\n' "$shootout_out" | awk '$1=="abilene" && $2=="gravity" {print $3}')
g_lat=$(printf '%s\n' "$shootout_out" | awk '$1=="abilene" && $2=="gravity" {print $4}')
if [ -z "$ic_err" ] || [ -z "$ic_lat" ] || [ -z "$g_err" ] || [ -z "$g_lat" ]; then
  echo "check.sh: shootout output missing ic or gravity rows:" >&2
  printf '%s\n' "$shootout_out" >&2
  exit 1
fi
if ! awk -v ie="$ic_err" -v il="$ic_lat" -v ge="$g_err" -v gl="$g_lat" \
    'BEGIN { exit !(ie < ge || il < gl) }'; then
  echo "check.sh: ic is dominated by gravity on both axes:" >&2
  echo "  ic:      error $ic_err, $ic_lat us/bin" >&2
  echo "  gravity: error $g_err, $g_lat us/bin" >&2
  exit 1
fi
echo "shootout smoke OK: ic error $ic_err vs gravity $g_err (latency $ic_lat vs $g_lat us/bin)"

echo "== CLI parallel smoke =="
out1=$(dune exec bin/ic_lab.exe -- estimate --dataset geant --week 1 \
  --prior stable-fp --stride 24 --jobs 1 | tail -1)
out4=$(dune exec bin/ic_lab.exe -- estimate --dataset geant --week 1 \
  --prior stable-fp --stride 24 --jobs 4 | tail -1)
if [ "$out1" != "$out4" ]; then
  echo "check.sh: --jobs 1 and --jobs 4 disagree:" >&2
  echo "  jobs 1: $out1" >&2
  echo "  jobs 4: $out4" >&2
  exit 1
fi

echo "check.sh: all green"
