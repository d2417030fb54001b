# Convenience wrappers around the dune alias split.
#
#   make check-fast   build + the fast test tier (@runtest: strided
#                     16-bit subsets, engine determinism at jobs 1/2/4)
#   make check-full   fast tier + @exhaustive (every bfloat16/float16
#                     input of the differential suite — including all five
#                     standard rounding modes derived from the float34
#                     round-to-odd table — and of the oracle's fast-phase
#                     vs Ziv suite, RLIBM_EXHAUSTIVE=1)
#   make bench-json   the sections CI's bench gate runs (exact arithmetic,
#                     LP, generator, rounding, sweep, campaign, serving,
#                     progressive tiers), results written to
#                     BENCH_<rev>.json (schema-v1 datafile)
#   make bench-diff   markdown diff of two run datafiles:
#                     make bench-diff BASE=BENCH_old.json CURR=BENCH_new.json
#
# RLIBM_JOBS=<n> controls worker domains for the sharded passes.

.PHONY: all build check-fast check-full bench bench-json bench-diff clean

all: build

build:
	dune build

check-fast: build
	dune runtest

check-full: check-fast
	dune build @exhaustive

bench: build
	dune exec bench/main.exe

bench-json: build
	dune exec bench/main.exe -- --json bigint rational lp gen round sweep campaign serve prog

bench-diff: build
	dune exec bin/report.exe -- datafile-diff $(BASE) $(CURR)

clean:
	dune clean
