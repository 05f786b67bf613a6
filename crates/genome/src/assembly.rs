//! Multi-chromosome genome assemblies.
//!
//! Whole-genome alignment is genome-vs-genome: the paper's inputs are
//! assemblies of nuclear chromosomes ("we only use nuclear chromosomes,
//! and remove mitochondrial DNA and unmapped and unlocalized contigs",
//! §V-A). An [`Assembly`] is an ordered set of named chromosomes.

use crate::fasta::{self, FastaError};
use crate::sequence::Sequence;
use std::io::BufRead;

/// One chromosome of an assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chromosome {
    /// Chromosome name (e.g. `chrX`).
    pub name: String,
    /// The sequence.
    pub sequence: Sequence,
}

/// A named, ordered collection of chromosomes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Assembly {
    /// Assembly name (e.g. `ce11`).
    pub name: String,
    chromosomes: Vec<Chromosome>,
}

impl Assembly {
    /// Creates an empty assembly.
    pub fn new(name: impl Into<String>) -> Assembly {
        Assembly {
            name: name.into(),
            chromosomes: Vec::new(),
        }
    }

    /// Adds a chromosome.
    ///
    /// # Panics
    ///
    /// Panics if a chromosome with the same name already exists.
    pub fn push(&mut self, name: impl Into<String>, sequence: Sequence) {
        let name = name.into();
        assert!(
            self.chromosome(&name).is_none(),
            "duplicate chromosome {name}"
        );
        self.chromosomes.push(Chromosome { name, sequence });
    }

    /// The chromosomes, in order.
    pub fn chromosomes(&self) -> &[Chromosome] {
        &self.chromosomes
    }

    /// Looks a chromosome up by name.
    pub fn chromosome(&self, name: &str) -> Option<&Chromosome> {
        self.chromosomes.iter().find(|c| c.name == name)
    }

    /// Number of chromosomes.
    pub fn len(&self) -> usize {
        self.chromosomes.len()
    }

    /// Whether the assembly has no chromosomes.
    pub fn is_empty(&self) -> bool {
        self.chromosomes.is_empty()
    }

    /// Total bases across chromosomes.
    pub fn total_bases(&self) -> usize {
        self.chromosomes.iter().map(|c| c.sequence.len()).sum()
    }

    /// Reads an assembly from FASTA (one record per chromosome).
    ///
    /// # Errors
    ///
    /// Propagates [`FastaError`] from the reader; returns
    /// [`FastaError::DuplicateName`] when two records share a name, so
    /// malformed user input surfaces as an error rather than a panic.
    pub fn from_fasta<R: BufRead>(name: impl Into<String>, reader: R) -> Result<Assembly, FastaError> {
        Assembly::from_fasta_sized(name, reader, 0)
    }

    /// [`Assembly::from_fasta`] over input known to be `byte_len` bytes
    /// long (see [`fasta::read_sized`]): each chromosome is allocated
    /// once instead of grown.
    ///
    /// # Errors
    ///
    /// As [`Assembly::from_fasta`].
    pub fn from_fasta_sized<R: BufRead>(
        name: impl Into<String>,
        reader: R,
        byte_len: usize,
    ) -> Result<Assembly, FastaError> {
        let records = fasta::read_sized(reader, byte_len)?;
        let mut assembly = Assembly::new(name);
        for rec in records {
            if assembly.chromosome(&rec.name).is_some() {
                return Err(FastaError::DuplicateName { name: rec.name });
            }
            assembly.push(rec.name, rec.sequence);
        }
        Ok(assembly)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Assembly {
        let mut a = Assembly::new("test1");
        a.push("chrI", "ACGTACGT".parse().unwrap());
        a.push("chrII", "GGGGCCCC".parse().unwrap());
        a
    }

    #[test]
    fn basic_accessors() {
        let a = sample();
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert_eq!(a.total_bases(), 16);
        assert_eq!(a.chromosome("chrII").unwrap().sequence.len(), 8);
        assert!(a.chromosome("chrX").is_none());
        assert_eq!(a.chromosomes()[0].name, "chrI");
    }

    #[test]
    #[should_panic(expected = "duplicate chromosome")]
    fn rejects_duplicate_names() {
        let mut a = sample();
        a.push("chrI", "AC".parse().unwrap());
    }

    #[test]
    fn from_fasta_rejects_duplicate_records() {
        let input = b">chrI\nACGT\n>chrI\nTTTT\n";
        let err = Assembly::from_fasta("dup", &input[..]).unwrap_err();
        assert!(matches!(err, FastaError::DuplicateName { ref name } if name == "chrI"), "{err}");
    }

    #[test]
    fn fasta_round_trip() {
        let a = sample();
        let mut buf = Vec::new();
        for c in a.chromosomes() {
            fasta::write_record(&mut buf, &c.name, &c.sequence).unwrap();
        }
        let b = Assembly::from_fasta("test1", &buf[..]).unwrap();
        assert_eq!(a, b);
    }
}
