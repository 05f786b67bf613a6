//! The FASTA reader under damaged input: every prefix and every one-byte
//! substitution of a small file that already has the awkward parts (lower
//! case, IUPAC letters, CRLF, blank lines, an empty record, a bare `>`).
//! Whatever the bytes and the size hint, a read returns `Ok` or `Err`, the
//! hint never changes which, and what is read writes back to itself.

use genome::assembly::Assembly;
use genome::fasta;
use std::panic::catch_unwind;

/// About 2 KB in three records: the first 1 800 bases of mixed case and
/// IUPAC codes in 60-column CRLF lines with blank lines among them, an
/// empty one, and one under a bare `>`.
fn awkward_fasta() -> Vec<u8> {
    const LETTERS: &[u8] = b"ACGTacgtACGTNnRYKMSWBDHVacgtrykm";
    let mut fasta = b">chr1 mixed case, IUPAC\r\n".to_vec();
    for line in 0..30 {
        let letter = |i: usize| LETTERS[(i * 7 + i / 13 + line) % LETTERS.len()];
        fasta.extend((0..60).map(letter));
        fasta.extend_from_slice(if line % 11 == 5 { b"\r\n\r\n" } else { b"\r\n" });
    }
    fasta.extend_from_slice(b"\n>empty\r\n\r\n>\nacgtNNNNryACGT\ngattaca\n");
    fasta
}

/// Reads `input` through every entry point at every hint, and checks what
/// is read round-trips through [`fasta::write`].
fn check(input: &[u8], case: &str) {
    let outcome = catch_unwind(|| {
        let read = format!("{:?}", fasta::read_sized(input, input.len()));
        for hint in [0, usize::MAX] {
            let again = format!("{:?}", fasta::read_sized(input, hint));
            assert_eq!(again, read, "hint {hint} changed the answer");
        }
        for hint in [input.len(), 0, usize::MAX] {
            let assembly = Assembly::from_fasta_sized("adversary", input, hint);
            if let (Ok(assembly), Ok(records)) = (&assembly, fasta::read(input)) {
                assert_eq!(assembly.len(), records.len());
            }
        }
        if let Ok(records) = fasta::read_sized(input, input.len()) {
            let mut written = Vec::new();
            fasta::write(&mut written, &records).expect("writing to a Vec");
            let back = fasta::read(&written[..]).expect("what was written reads back");
            assert_eq!(
                back,
                records,
                "written back as {:?}",
                String::from_utf8_lossy(&written)
            );
        }
    });
    if outcome.is_err() {
        panic!("{case} panicked on {:?}", String::from_utf8_lossy(input));
    }
}

#[test]
fn the_awkward_file_itself_reads_as_three_records() {
    let input = awkward_fasta();
    assert!((1800..2300).contains(&input.len()), "{} bytes", input.len());
    let records = fasta::read(&input[..]).expect("the undamaged file reads");
    let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ["chr1", "empty", ""]);
    let lengths: Vec<usize> = records.iter().map(|r| r.sequence.len()).collect();
    assert_eq!(lengths, [1800, 0, 21]);
    check(&input, "the undamaged file");
}

#[test]
fn every_prefix_reads_or_fails_cleanly() {
    let input = awkward_fasta();
    for end in 0..=input.len() {
        check(&input[..end], &format!("prefix of {end} bytes"));
    }
}

#[test]
fn every_single_byte_substitution_reads_or_fails_cleanly() {
    let input = awkward_fasta();
    let mut damaged = input.clone();
    for at in 0..input.len() {
        for byte in [b'>', b'\n', b'\r', b'N', b' ', 0x00, 0xff] {
            damaged[at] = byte;
            check(&damaged, &format!("byte {at} set to {byte:#04x}"));
        }
        damaged[at] = input[at];
    }
}
