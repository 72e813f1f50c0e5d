.PHONY: all build test fmt doc lint-loops lint-globals lint-dead lint-fsload \
	ci bench chaos-smoke bench-guard

all: build

build:
	dune build @all

test:
	dune runtest

# Format check gates on ocamlformat being installed: the tree must
# still build and test in environments that don't ship it.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "ocamlformat not installed; skipping format check"; \
	fi

doc:
	dune build @doc

# Service loops belong on lib/svc: a hand-rolled `Chan.recv` request
# loop in the service layers bypasses the uniform overload policies
# and queue metrics.  Allowlisted files hold the loops that are not
# request/reply services: the fabric's wire and NIC delivery loops,
# the stack's frame demux fiber, the supervisor's restart
# control-plane, the cluster node's park channel, and the client's
# pipeline window (a bounded-capacity semaphore, not a request loop).
LINT_LOOP_DIRS := lib/kernel lib/net lib/cluster lib/obs lib/fsspec lib/vfs
LINT_LOOP_ALLOW := \
	lib/kernel/supervisor.ml \
	lib/net/fabric.ml \
	lib/net/stack.ml \
	lib/cluster/cluster.ml \
	lib/cluster/client.ml

lint-loops:
	@bad=$$(grep -rn --include='*.ml' 'Chan\.recv\b' $(LINT_LOOP_DIRS) \
		| grep -v $(foreach f,$(LINT_LOOP_ALLOW),-e '^$(f):') || true); \
	if [ -n "$$bad" ]; then \
		echo "lint-loops: hand-rolled Chan.recv service loop outside lib/svc:"; \
		echo "$$bad"; \
		echo "port it to Svc.serve / Svc.serve_cast, or allowlist it in the Makefile"; \
		exit 1; \
	else \
		echo "lint-loops: OK"; \
	fi

# Domain-safety gate: no new top-level mutable globals in lib/.  The
# Ctx refactor moved every process-global (Inspect registry, metrics,
# trace factory, crash points) into per-run contexts so N engines can
# run concurrently on N domains; a fresh `let x = ref ...` at module
# top level would silently re-introduce cross-run sharing.  Allowlist
# files that earn an exception (none today); Atomic.make is deliberately
# not matched — atomics are how intentional cross-domain state is spelt.
LINT_GLOBAL_ALLOW :=

lint-globals:
	@bad=$$(grep -rnE --include='*.ml' \
		"^let [a-z_][a-zA-Z0-9_']*( *:[^=]*)? = (ref |Hashtbl\.create|Queue\.create|Buffer\.create|Array\.make)" \
		lib/ \
		| grep -v $(foreach f,$(LINT_GLOBAL_ALLOW),-e '^$(f):') -e '^$$' \
		|| true); \
	if [ -n "$$bad" ]; then \
		echo "lint-globals: top-level mutable global in lib/ (breaks domain-safety):"; \
		echo "$$bad"; \
		echo "bind it in a Chorus.Ctx slot (per-run) or allowlist it in the Makefile"; \
		exit 1; \
	else \
		echo "lint-globals: OK"; \
	fi

# Dead-surface gate, three checks.
#
# Modules: every lib/*/*.ml module must be named by some other .ml
# file of the program (lib/, bin/, bench/, examples/, perfbench/); a
# module only its unit tests use is dead library surface.  A name is a
# qualified use `M.`, `open M` / `include M`, or a module path ending
# in M as an alias (`= Lib.M`) or functor argument (`(M)`).
# Allowlisted: the pure reference model the test suites compare
# implementations against.
#
# Exports: every top-level `val v` of a lib/*/*.mli of module M must be
# named by some other .ml file, tests included (a test-only accessor is
# an observation hook): a file names it if it contains `M.v`, aliases
# M as A (`module A = Lib.M`) and contains `A.v`, or opens or includes
# M (`open M`, `include M`, `M.(`) and mentions `v` at all.
#
# Fields: a `mutable` field of a lib/ record must be read.  It fails
# when every line of those files or of test/ that names it is its
# declaration (`mutable f :`), an initialiser in a record literal
# (`f = …`, not `x.f = …`) or an assignment to it (`.f <- …`, a
# self-increment included): state nothing observes.  The check goes
# by name, so a field that shares its name with a read one passes.
LINT_DEAD_SRC := lib bin bench examples perfbench
LINT_DEAD_ALLOW := lib/fsspec/fsmodel.ml

lint-dead:
	@bad=""; \
	for f in lib/*/*.ml; do \
		case " $(LINT_DEAD_ALLOW) " in *" $$f "*) continue ;; esac; \
		m=$$(basename $$f .ml | awk '{ print toupper(substr($$0, 1, 1)) substr($$0, 2) }'); \
		p="([A-Z][A-Za-z0-9_']*\.)*$$m"; \
		users=$$(grep -rlE --include='*.ml' \
			"\b$$m\.|(open|include)!? +$$p\b|= *$$p *$$|\( *$$p *\)" \
			$(LINT_DEAD_SRC) | grep -vx "$$f" || true); \
		[ -n "$$users" ] || bad="$$bad $$f"; \
	done; \
	id="[a-z_][A-Za-z0-9_']*"; names=$$(mktemp); \
	for f in lib/*/*.mli; do \
		vals=$$(sed -nE "s/^val ($$id).*/\1/p" $$f); \
		[ -n "$$vals" ] || continue; \
		m=$$(basename $$f .mli | awk '{ print toupper(substr($$0, 1, 1)) substr($$0, 2) }'); \
		p="([A-Z][A-Za-z0-9_']*\.)*$$m"; \
		users=$$(grep -rlE --include='*.ml' "\b$$m\b" $(LINT_DEAD_SRC) test \
			| grep -vx "$${f%i}" || true); \
		if [ -n "$$users" ]; then \
			grep -ohE "\b$$m\.$$id" $$users | sed "s/^$$m\.//"; \
			grep -HE "module +[A-Z][A-Za-z0-9_']* *= *$$p *$$" $$users \
			| sed -E "s/^([^:]*):.*module +([A-Z][A-Za-z0-9_']*) *=.*/\1 \2/" \
			| while read g a; do \
				grep -ohE "\b$$a\.$$id" $$g | sed "s/^$$a\.//"; \
			done; \
			openers=$$(grep -lE "(open|include)!? +$$p\b|\b$$m\.\(" $$users || true); \
			[ -z "$$openers" ] || grep -ohE "$$id" $$openers; \
		fi | sort -u > $$names; \
		for v in $$(printf '%s\n' $$vals | grep -vxF -f $$names); do \
			bad="$$bad $$m.$$v"; \
		done; \
	done; \
	rm -f $$names; \
	for d in $$(grep -roE --include='*.ml' "\bmutable +$$id *:" lib \
		| sed -E 's/:mutable +/:/; s/ *:$$//' | sort -u); do \
		v=$${d#*:}; \
		grep -rhwE --include='*.ml' --include='*.mli' "$$v" $(LINT_DEAD_SRC) test \
		| grep -qvE "\bmutable +$$v *:|(^|[^.A-Za-z0-9_'~?])$$v *=([^=]|$$)|\.$$v *<-" \
		|| bad="$$bad $$d"; \
	done; \
	if [ -n "$$bad" ]; then \
		echo "lint-dead: lib modules, exports and mutable fields nothing reads:$$bad"; \
		echo "delete them, make them internal, or allowlist a module in the Makefile"; \
		exit 1; \
	else \
		echo "lint-dead: OK"; \
	fi

# One file-server harness: `Exp_common.run_fs` boots the file server
# and drives the Fsload workload for every experiment that runs one, so
# it holds the program's only applications of `Fsload.Make` under lib/,
# bin/ and bench/.  A second application is a second harness, sized and
# booted its own way.  Tests, examples and perfbench/ are outside the
# gate.
LINT_FSLOAD_DIRS := lib bin bench
LINT_FSLOAD_ALLOW := lib/experiments/exp_common.ml

lint-fsload:
	@bad=$$(grep -rnE --include='*.ml' 'Fsload\.Make\b' $(LINT_FSLOAD_DIRS) \
		| grep -v $(foreach f,$(LINT_FSLOAD_ALLOW),-e '^$(f):') || true); \
	if [ -n "$$bad" ]; then \
		echo "lint-fsload: Fsload.Make applied outside Exp_common.run_fs:"; \
		echo "$$bad"; \
		echo "run the file server through Exp_common.run_fs"; \
		exit 1; \
	else \
		echo "lint-fsload: OK"; \
	fi

bench:
	dune exec bench/main.exe

# A small seeded chaos campaign over every registered scenario plus
# the oracle selftest (under a second): every fault kind gets
# explored, every oracle must stay green, and the planted violation
# must be caught.  Each scenario's run count is its registry entry's
# `default_runs` (lib/chaos/chaos.ml).  Exit 1 on any oracle violation, 2 if the selftest
# fails.  --domains 0 shards the campaign across every available core
# (auto-detected, so a single-core CI host runs it sequentially at
# unchanged cost); the merged report is byte-identical at any width.
# The replay goldens run under `dune runtest` (test/golden/dune).
chaos-smoke:
	dune exec bin/chorus_sim.exe -- chaos --selftest --domains 0

# Compare the committed BENCH_*.json baselines against a fresh
# regeneration of their deterministic fields.
bench-guard:
	scripts/bench_guard

ci: build test fmt doc lint-loops lint-globals lint-dead lint-fsload chaos-smoke \
	bench-guard
