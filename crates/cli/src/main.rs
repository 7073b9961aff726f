//! `ptaint-run` — compile a mini-C (or assembly) guest program and execute
//! it on the pointer-taintedness detection architecture. See the library
//! docs (`ptaint_cli`) for the option reference.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "ptaint-run <program.c|program.s> [options]\n\
             ptaint-run analyze <program.c|program.s> [options]\n\
             ptaint-run inject <program.c|program.s> [options]\n\
             ptaint-run profile <program.c|program.s> [options]\n\
             ptaint-run replay <program.c|program.s> --journal FILE [options]\n\
             \n\
             analyze              print the static taint lint report and\n\
                                  exit (0 clean, 3 with findings); only\n\
                                  recognized as the first argument (use\n\
                                  `ptaint-run ./analyze` to run a file of\n\
                                  that name)\n\
             inject               run a deterministic fault-injection\n\
                                  campaign (baseline + --trials seeded\n\
                                  faults) and emit the JSON report; same\n\
                                  seed => byte-identical report\n\
             profile              run with the hot-loop profiler and print\n\
                                  the top-N report: hot blocks/pcs, taint\n\
                                  hotspots, syscall table, call paths\n\
             replay               re-execute a run from a syscall journal\n\
                                  recorded with --journal-out; bit-exact\n\
                                  retrace, no world attached; a guest that\n\
                                  leaves the recording stops with a\n\
                                  `replay diverged` outcome\n\
             \n\
             --asm                input is assembly\n\
             --optimize           peephole-optimize the generated code\n\
             --policy P           off | control-only | ptaint (default)\n\
             --engine E           interp | cached (default)\n\
             -j N, --jobs N       (analyze, inject) worker threads: the\n\
                                  analysis fixpoint and campaign shards\n\
                                  (also -jN);\n\
                                  byte-identical output for any N\n\
             --stdin FILE         stdin bytes from FILE (tainted)\n\
             --stdin-text STRING  stdin bytes inline (tainted)\n\
             --arg S / --env K=V  guest argv / environment (repeatable)\n\
             --file PATH=HOST     mount HOST file at guest PATH (repeatable)\n\
             --session FILE       scripted client, one message per line\n\
                                  (\\xNN hex escapes for raw payload bytes)\n\
             --watch SYMBOL:LEN   annotate never-tainted data (§5.3)\n\
             --caches             model L1/L2 caches\n\
             --pipeline           5-stage pipeline timing model\n\
             --steps N            step budget\n\
             --watchdog-ms N      wall-clock watchdog on the run\n\
             --seed N             (inject) campaign seed, default 1\n\
             --trials N           (inject) faulted trials, default 32\n\
             --faults LIST        (inject) comma-separated fault kinds\n\
             --fork / --no-fork   (inject) fork trials copy-on-write from\n\
                                  one post-boot snapshot (default) or\n\
                                  reboot each from _start; reports are\n\
                                  byte-identical either way\n\
             --report FILE        (inject) write campaign JSON to FILE\n\
             --journal-out FILE   record the syscall journal for `replay`\n\
             --journal FILE       (replay) journal to re-serve the run from\n\
             --trace-out FILE     write the event stream (JSONL) to FILE\n\
             --metrics-out FILE   write the metrics snapshot (JSON) to FILE\n\
             --metrics-interval N interleave a metrics_snapshot record into\n\
                                  the JSONL stream each time the retired\n\
                                  count reaches a multiple of N, after\n\
                                  that instruction's kernel work (needs\n\
                                  --trace-out)\n\
             --profile-out FILE   write the profile JSON to FILE (counts\n\
                                  only; byte-deterministic)\n\
             --provenance         print the forensic taint chain on detection\n\
             --trace-depth N      retired-instruction ring depth\n\
             --disasm             print disassembly and exit\n\
             --quiet              program output only\n\
             \n\
             exit code: guest status; 42 on a security detection; 2 on\n\
             usage/read/build errors, including a missing or malformed\n\
             --journal file and a subcommand's flag given outside it; 3 on analyze findings; 4 when a requested\n\
             artifact file (--trace-out, --metrics-out, --profile-out,\n\
             --report, --journal-out) cannot be written"
        );
        return ExitCode::SUCCESS;
    }
    let opts = match ptaint_cli::parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("ptaint-run: {e}");
            return ExitCode::from(2);
        }
    };
    let source = match std::fs::read_to_string(&opts.program) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ptaint-run: cannot read `{}`: {e}", opts.program);
            return ExitCode::from(2);
        }
    };
    let machine = match ptaint_cli::build_machine(&opts, &source) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("ptaint-run: {e}");
            return ExitCode::from(2);
        }
    };
    let (report, code) = ptaint_cli::run_machine(&opts, &machine);
    print!("{report}");
    ExitCode::from(u8::try_from(code.rem_euclid(256)).unwrap_or(1))
}
