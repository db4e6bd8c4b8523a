# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-small bench-full examples doc clean

all: build

build:
	dune build @all

test:
	dune runtest

# full reproduction harness (default medium corpus, ~30 s)
bench:
	dune exec bench/main.exe

bench-small:
	DLOSN_BENCH_SCALE=small dune exec bench/main.exe

bench-full:
	DLOSN_BENCH_SCALE=full dune exec bench/main.exe

# API docs (requires odoc: opam install odoc)
doc:
	dune build @doc

examples:
	dune exec examples/quickstart.exe
	dune exec examples/model_properties.exe
	dune exec examples/wavefront_speed.exe
	dune exec examples/interest_vs_hops.exe
	dune exec examples/digg_prediction.exe
	dune exec examples/forecasting.exe
	dune exec examples/network_ablation.exe

clean:
	dune clean
