.PHONY: all build test bench bench-quick examples fuzz doc clean

all: build

build:
	dune build @all

test:
	dune runtest

# every paper table/figure + the extension experiments (Small inputs)
bench:
	dune exec bin/specpmt_run.exe -- bench

bench-quick:
	dune exec bin/specpmt_run.exe -- bench --scale quick all

examples:
	dune exec examples/quickstart.exe
	dune exec examples/paper_figure4.exe
	dune exec examples/kvstore_crash.exe
	dune exec examples/bank_transfer.exe
	dune exec examples/hybrid_hotcold.exe
	dune exec examples/mechanism_switch.exe
	dune exec examples/job_queue.exe

# long randomized crash-recovery torture across all recoverable schemes
fuzz:
	for s in PMDK SPHT SpecSPMT-DP SpecSPMT Spec-hashlog EDE HOOP \
	         SpecHPMT-DP SpecHPMT; do \
	  dune exec bin/specpmt_run.exe -- fuzz -s $$s --rounds 100 || exit 1; \
	done

doc:
	dune build @doc

clean:
	dune clean
