//! Table I: dump the simulated configuration used throughout the
//! evaluation (built by [`mcs_bench::figs::table1`]).

fn main() {
    mcs_bench::figs::table1().emit();
}
