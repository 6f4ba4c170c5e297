#!/usr/bin/env python3
"""Run one benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run in a checkout builds the program's sources together with the
benchmark driver (sbt, offline) into .bench_build/, and records the class
path there; later runs reuse it while the sources are unchanged. The
driver prints every metric by name and unit; the last line of standard
output is one JSON object with "correct", "attempted", "failed" and
"metrics".
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_LIMIT_S = 170  # the whole run, build excluded, must end within 180 s
BUILD_LIMIT_S = 840
JAVA_HEAP = "3g"

# The module openings Spark's own launcher passes to a Java 17 JVM.
JAVA_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def source_digest():
    """Digest of everything the build reads, so a changed tree rebuilds."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(HERE, "src", "main")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if home:
        return home
    submit = shutil.which("spark-submit")
    if submit:
        return os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    sys.exit("perfbench: no Spark distribution found (set SPARK_HOME)")


def run_capped(cmd, cwd, env, limit_s, capture):
    """Run cmd in its own process group; kill the group at the limit."""
    p = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True,
                         stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = p.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        sys.exit(f"perfbench: {cmd[0]} exceeded {limit_s} s")
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise
    return p.returncode, out


def build(env):
    """Compile once per source digest; return the run-time class path."""
    cp_file = os.path.join(BUILD, f"classpath-{source_digest()}.txt")
    if os.path.exists(cp_file):
        with open(cp_file) as fh:
            return fh.read().strip()
    os.makedirs(BUILD, exist_ok=True)
    log("building (sbt compile) ...")
    t0 = time.time()
    code, out = run_capped(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
         "compile", "export Runtime/fullClasspath"],
        HERE, env, BUILD_LIMIT_S, capture=True)
    if code != 0:
        sys.stderr.write(out)
        sys.exit(f"perfbench: build failed (sbt exit {code})")
    cps = [l.strip() for l in out.splitlines() if ".jar" in l and os.pathsep in l]
    if not cps:
        sys.stderr.write(out)
        sys.exit("perfbench: build printed no class path")
    with open(cp_file, "w") as fh:
        fh.write(cps[-1])
    log(f"built in {time.time() - t0:.0f} s")
    return cps[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        sys.exit("perfbench: the program's sources (src/main/scala) are not in this checkout")

    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    env["PERFBENCH_BUILD_DIR"] = BUILD
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true -Xmx2g")
    cp = build(env)

    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", f"-Xmx{JAVA_HEAP}", f"-Djava.io.tmpdir={tmp}", *JAVA_OPENS,
           "-cp", cp, "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--build-dir", BUILD]
    code, out = run_capped(cmd, ROOT, env, RUN_LIMIT_S, capture=True)
    lines = out.rstrip("\n").splitlines()
    result = lines[-1] if lines and lines[-1].startswith("{") else None
    sys.stdout.write("".join(l + "\n" for l in lines[:-1] if result) if result else out)
    if code != 0 or result is None:
        sys.exit(f"perfbench: driver failed (exit {code})")
    print(result, flush=True)


if __name__ == "__main__":
    main()
