//! Fixture: foreign declarations are flagged outside the buffer module.

#[allow(dead_code)]
#[link(name = "c")]
extern "C" {
    fn getpid() -> i32;
}

pub extern "C" fn exported_callback(x: u32) -> u32 {
    x
}
