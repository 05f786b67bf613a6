//! `[entry-dirs]` file: what it calls is reached; its own fns are never
//! reported.

fn main() {
    example_helper();
}

fn unused_in_example() {}
