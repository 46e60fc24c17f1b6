//! `gtlb` — command-line front end to the game-theoretic load balancers.
//!
//! ```text
//! gtlb allocate --rates 10,5,1 --phi 6 [--scheme coop|optim|prop|wardrop]
//! gtlb nash     --rates 10,5,1 --rho 0.6 --shares 0.5,0.3,0.2
//! gtlb payments --rates 10,5,1 --rho 0.5 [--max-bid 100]
//! gtlb simulate --rates 10,5,1 --rho 0.6 --scheme coop [--cv 1.6]
//!               [--jobs 200000] [--reps 5] [--seed 42]
//! gtlb exchange --rates 10,5,1 --arrivals 1,4,4 --channel 6
//! ```

use gtlb::balancing::noncoop::{nash, NashInit, NashOptions};
use gtlb::prelude::*;
use gtlb::sim::report::{fmt_num, Table};
use gtlb::sim::runner::{replicate_parallel, single_class_spec, ArrivalLaw, SimBudget};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return;
    };
    let flags = parse_flags(&args[1..]);
    let result = match cmd.as_str() {
        "allocate" => allocate(&flags),
        "nash" => run_nash(&flags),
        "payments" => payments(&flags),
        "simulate" => simulate(&flags),
        "exchange" => exchange(&flags),
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        eprintln!();
        usage();
        std::process::exit(2);
    }
}

fn usage() {
    eprintln!("gtlb — game-theoretic load balancing");
    eprintln!();
    eprintln!(
        "  gtlb allocate --rates R1,R2,... (--phi X | --rho U) [--scheme coop|optim|prop|wardrop]"
    );
    eprintln!("  gtlb nash     --rates R1,R2,... (--phi X | --rho U) [--shares S1,S2,...]");
    eprintln!("  gtlb payments --rates R1,R2,... (--phi X | --rho U) [--max-bid B]");
    eprintln!("  gtlb simulate --rates R1,R2,... (--phi X | --rho U) [--scheme S] [--cv C]");
    eprintln!("                [--jobs N] [--reps R] [--seed K]");
    eprintln!("  gtlb exchange --rates R1,R2,... --arrivals A1,A2,... --channel C");
}

type Flags = std::collections::HashMap<String, String>;

fn parse_flags(args: &[String]) -> Flags {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = it.next().cloned().unwrap_or_default();
            flags.insert(name.to_string(), value);
        }
    }
    flags
}

fn parse_list(flags: &Flags, key: &str) -> Result<Vec<f64>, String> {
    let raw = flags.get(key).ok_or_else(|| format!("--{key} is required"))?;
    raw.split(',')
        .map(|s| s.trim().parse::<f64>().map_err(|e| format!("--{key}: bad number `{s}`: {e}")))
        .collect()
}

fn parse_num(flags: &Flags, key: &str) -> Result<Option<f64>, String> {
    match flags.get(key) {
        None => Ok(None),
        Some(raw) => {
            raw.parse::<f64>().map(Some).map_err(|e| format!("--{key}: bad number `{raw}`: {e}"))
        }
    }
}

/// `--key` as an unsigned integer, if given: `2.5`, `-1` and `1e12` are
/// errors, not casts.
fn parse_count<T>(flags: &Flags, key: &str) -> Result<Option<T>, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    match flags.get(key) {
        None => Ok(None),
        Some(raw) => raw
            .parse::<T>()
            .map(Some)
            .map_err(|e| format!("--{key}: bad unsigned integer `{raw}`: {e}")),
    }
}

fn cluster_and_phi(flags: &Flags) -> Result<(Cluster, f64), String> {
    let rates = parse_list(flags, "rates")?;
    let cluster = Cluster::new(rates).map_err(|e| e.to_string())?;
    let phi = match (parse_num(flags, "phi")?, parse_num(flags, "rho")?) {
        (Some(phi), None) => phi,
        (None, Some(rho)) => {
            if !(0.0..1.0).contains(&rho) {
                return Err("--rho must lie in (0,1)".into());
            }
            cluster.arrival_rate_for_utilization(rho)
        }
        (Some(_), Some(_)) => return Err("give --phi or --rho, not both".into()),
        (None, None) => return Err("one of --phi or --rho is required".into()),
    };
    cluster.check_arrival_rate(phi).map_err(|e| e.to_string())?;
    Ok((cluster, phi))
}

fn scheme_by_name(name: &str) -> Result<Box<dyn SingleClassScheme>, String> {
    match name.to_ascii_lowercase().as_str() {
        "coop" | "nbs" => Ok(Box::new(Coop)),
        "optim" => Ok(Box::new(Optim)),
        "prop" => Ok(Box::new(Prop)),
        "wardrop" => Ok(Box::new(Wardrop::default())),
        other => Err(format!("unknown scheme `{other}` (coop|optim|prop|wardrop)")),
    }
}

fn allocate(flags: &Flags) -> Result<(), String> {
    let (cluster, phi) = cluster_and_phi(flags)?;
    let scheme = scheme_by_name(flags.get("scheme").map_or("coop", String::as_str))?;
    let alloc = scheme.allocate(&cluster, phi).map_err(|e| e.to_string())?;
    let mut t = Table::new(
        format!(
            "{} allocation (phi = {}, rho = {:.1}%)",
            scheme.name(),
            fmt_num(phi),
            100.0 * cluster.utilization(phi)
        ),
        &["computer", "rate", "load", "utilization", "response time"],
    );
    let times = alloc.response_times(&cluster);
    for (i, time) in times.iter().enumerate() {
        t.push_row(vec![
            format!("{i}"),
            fmt_num(cluster.rates()[i]),
            fmt_num(alloc.loads()[i]),
            fmt_num(alloc.loads()[i] / cluster.rates()[i]),
            time.map_or_else(|| "idle".into(), fmt_num),
        ]);
    }
    println!("{t}");
    println!(
        "mean response time {} s, fairness index {}",
        fmt_num(alloc.mean_response_time(&cluster)),
        fmt_num(alloc.fairness_index(&cluster))
    );
    Ok(())
}

fn run_nash(flags: &Flags) -> Result<(), String> {
    let (cluster, phi) = cluster_and_phi(flags)?;
    let shares = match flags.get("shares") {
        Some(_) => parse_list(flags, "shares")?,
        None => vec![1.0],
    };
    let system = UserSystem::with_shares(cluster, phi, &shares).map_err(|e| e.to_string())?;
    let out = nash::solve(&system, &NashInit::Proportional, &NashOptions::default())
        .map_err(|e| e.to_string())?;
    nash::verify_equilibrium(&system, &out.profile, 1e-6).map_err(|e| e.to_string())?;
    let mut t = Table::new(
        format!("Nash equilibrium ({} rounds, {} best replies)", out.rounds, out.user_updates),
        &["user", "rate", "response time"],
    );
    let times = out.profile.user_times(&system);
    for (j, &time) in times.iter().enumerate() {
        t.push_row(vec![format!("{j}"), fmt_num(system.user_rates()[j]), fmt_num(time)]);
    }
    println!("{t}");
    println!(
        "overall {} s, user fairness {} (equilibrium certified)",
        fmt_num(out.profile.overall_response_time(&system)),
        fmt_num(out.profile.fairness_index(&system))
    );
    Ok(())
}

fn payments(flags: &Flags) -> Result<(), String> {
    let (cluster, phi) = cluster_and_phi(flags)?;
    let bids: Vec<f64> = cluster.rates().iter().map(|&r| 1.0 / r).collect();
    let mech = match parse_num(flags, "max-bid")? {
        Some(cap) if !(cap.is_finite() && cap > 0.0) => {
            return Err("--max-bid must be finite and positive".into());
        }
        Some(cap) => TruthfulMechanism::with_max_bid(phi, cap),
        None => TruthfulMechanism::new(phi),
    };
    let payments = mech.payments(&bids).map_err(|e| {
        format!("{e} (hint: at high utilization pass --max-bid to cap the payment integral)")
    })?;
    let mut t = Table::new(
        "truthful payments (agents bid their true values)",
        &["computer", "bid (s/job)", "load", "payment", "cost", "profit"],
    );
    for (i, p) in payments.iter().enumerate() {
        t.push_row(vec![
            format!("{i}"),
            fmt_num(bids[i]),
            fmt_num(p.load),
            fmt_num(p.payment()),
            fmt_num(p.cost(bids[i])),
            fmt_num(p.profit(bids[i])),
        ]);
    }
    println!("{t}");
    Ok(())
}

fn exchange(flags: &Flags) -> Result<(), String> {
    use gtlb::balancing::network::NetworkedSystem;
    let rates = parse_list(flags, "rates")?;
    let arrivals = parse_list(flags, "arrivals")?;
    let channel = parse_num(flags, "channel")?.ok_or("--channel is required")?;
    let cluster = Cluster::new(rates).map_err(|e| e.to_string())?;
    let sys = NetworkedSystem::new(cluster.clone(), arrivals.clone(), channel)
        .map_err(|e| e.to_string())?;
    let plan = sys.optimize().map_err(|e| e.to_string())?;
    let mut t = Table::new(
        "optimal load exchange over the shared channel",
        &["computer", "rate", "local arrivals", "optimized load", "migration"],
    );
    for (i, (&load, &arr)) in plan.loads.loads().iter().zip(&arrivals).enumerate() {
        let delta = load - arr;
        t.push_row(vec![
            format!("{i}"),
            fmt_num(cluster.rates()[i]),
            fmt_num(arr),
            fmt_num(load),
            if delta >= 0.0 { format!("+{}", fmt_num(delta)) } else { fmt_num(delta) },
        ]);
    }
    println!("{t}");
    println!(
        "traffic {} jobs/s over a channel of {} (per-migration delay {} s); total delay D = {}",
        fmt_num(plan.traffic),
        fmt_num(channel),
        fmt_num(plan.channel_delay),
        fmt_num(plan.total_delay)
    );
    Ok(())
}

fn simulate(flags: &Flags) -> Result<(), String> {
    let (cluster, phi) = cluster_and_phi(flags)?;
    let scheme = scheme_by_name(flags.get("scheme").map_or("coop", String::as_str))?;
    let alloc = scheme.allocate(&cluster, phi).map_err(|e| e.to_string())?;
    let cv = parse_num(flags, "cv")?.unwrap_or(1.0);
    // The H₂ fit needs cv ≥ 1 and loses its second branch near cv = 1e8.
    if !(1.0..=1e6).contains(&cv) {
        return Err("--cv must lie in [1, 1e6]".into());
    }
    let arrivals =
        if (cv - 1.0).abs() < 1e-12 { ArrivalLaw::Poisson } else { ArrivalLaw::HyperExp { cv } };
    let budget = SimBudget {
        seed: parse_count(flags, "seed")?.unwrap_or(0x6A0B),
        replications: parse_count(flags, "reps")?.unwrap_or(5),
        warmup_jobs: 20_000,
        measured_jobs: parse_count(flags, "jobs")?.unwrap_or(200_000),
    };
    if budget.replications == 0 {
        return Err("--reps must be at least 1".into());
    }
    if budget.measured_jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    let spec = single_class_spec(&cluster, alloc.loads(), phi, arrivals);
    let res = replicate_parallel(&spec, &budget);
    println!(
        "{}: simulated mean response time {} ± {} s ({} replications x {} jobs, arrival CV {})",
        scheme.name(),
        fmt_num(res.overall.mean),
        fmt_num(res.overall.half_width),
        budget.replications,
        budget.measured_jobs,
        fmt_num(cv),
    );
    println!("analytic M/M/1 value: {} s", fmt_num(alloc.mean_response_time(&cluster)));
    Ok(())
}
