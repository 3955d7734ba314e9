//! Fixture: a result-writing bin beside the benchmark may not time itself.

fn main() {
    let start = std::time::Instant::now();
    println!("{:?}", start.elapsed());
}
