//! On x86_64 glibc Linux every binary and test of the workspace is one
//! static-PIE image (`.cargo/config.toml`; DESIGN.md "The process image:
//! one static binary"). A lost or overridden config links them
//! dynamically again, and every run maps libc, libm, libgcc_s and the
//! loader beside the aligner — about a megabyte of resident pages. These
//! two checks are what notice.
#![cfg(all(target_os = "linux", target_arch = "x86_64", target_env = "gnu"))]

const PT_LOAD: u32 = 1;
const PT_INTERP: u32 = 3;

/// The `p_type` of every program header of a little-endian ELF64 file.
fn program_header_types(elf: &[u8]) -> Vec<u32> {
    assert_eq!(&elf[..4], b"\x7fELF", "not an ELF file");
    assert_eq!(elf[4], 2, "not ELFCLASS64");
    assert_eq!(elf[5], 1, "not ELFDATA2LSB");
    let u16_at = |at: usize| usize::from(u16::from_le_bytes([elf[at], elf[at + 1]]));
    let e_phoff = u64::from_le_bytes(elf[0x20..0x28].try_into().unwrap()) as usize;
    let e_phentsize = u16_at(0x36);
    let e_phnum = u16_at(0x38);
    (0..e_phnum)
        .map(|i| {
            let at = e_phoff + i * e_phentsize;
            u32::from_le_bytes(elf[at..at + 4].try_into().unwrap())
        })
        .collect()
}

#[test]
fn wga_names_no_program_interpreter() {
    let elf = std::fs::read(env!("CARGO_BIN_EXE_wga")).expect("the wga binary is built");
    let types = program_header_types(&elf);
    assert!(
        types.contains(&PT_LOAD),
        "program headers misread: {types:?}"
    );
    assert!(
        !types.contains(&PT_INTERP),
        "wga has a PT_INTERP header: it was linked dynamically"
    );
}

#[test]
fn this_test_process_maps_no_shared_libc() {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs is mounted");
    assert!(
        !maps.contains("libc.so"),
        "the test binary maps a shared libc:\n{maps}"
    );
}
