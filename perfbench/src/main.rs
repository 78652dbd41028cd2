fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(randsync_perfbench::run(&args, &randsync_perfbench::expect::EXPECTED));
}
