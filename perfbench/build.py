"""Build file of the explain-query benchmark.

Compiles the program (`src/main/scala`) and the benchmark (`perfbench/src`)
into `.bench_build/classes` with the Scala compiler that ships in the Spark
distribution, against the Spark jars. A stamp of the sources skips the
compile when nothing changed. Run from the root of a checkout:

    python3 perfbench/build.py
"""

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
SCALAC_FLAGS = ["-nowarn", "-encoding", "UTF-8"]


class BuildError(Exception):
    pass


def spark_jars() -> pathlib.Path:
    """The `jars` directory of the Spark distribution: from SPARK_HOME, else
    next to `spark-submit` on the PATH."""
    candidates = []
    if os.environ.get("SPARK_HOME"):
        candidates.append(pathlib.Path(os.environ["SPARK_HOME"]) / "jars")
    submit = shutil.which("spark-submit")
    if submit:
        candidates.append(pathlib.Path(submit).resolve().parent.parent / "jars")
    for jars in candidates:
        if any(jars.glob("scala-compiler-*.jar")):
            return jars
    raise BuildError("no Spark distribution with a Scala compiler found; set SPARK_HOME")


def java() -> str:
    exe = shutil.which("java")
    if exe is None:
        raise BuildError("no `java` on the PATH")
    return exe


def build(root: pathlib.Path) -> pathlib.Path:
    """Compiles if needed; returns the classes directory."""
    program = sorted((root / "src" / "main" / "scala").rglob("*.scala"))
    bench = sorted((root / "perfbench" / "src").rglob("*.scala"))
    if not program:
        raise BuildError(f"no program sources under {root / 'src/main/scala'}")
    jars = spark_jars()
    digest = hashlib.sha256()
    digest.update(" ".join(SCALAC_FLAGS + sorted(p.name for p in jars.glob("*.jar"))).encode())
    for src in program + bench:
        digest.update(str(src.relative_to(root)).encode())
        digest.update(src.read_bytes())
    stamp = digest.hexdigest()

    out = root / BUILD_DIR / "classes"
    stamp_file = root / BUILD_DIR / "classes.stamp"
    if out.is_dir() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return out
    shutil.rmtree(out, ignore_errors=True)
    stamp_file.unlink(missing_ok=True)
    out.mkdir(parents=True)
    tmp = root / BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [java(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           "-cp", f"{jars}/*", "scala.tools.nsc.Main", "-usejavacp", *SCALAC_FLAGS,
           "-d", str(out), *map(str, program + bench)]
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BuildError(f"scalac exited with {done.returncode}")
    stamp_file.write_text(stamp)
    return out


if __name__ == "__main__":
    try:
        print(build(pathlib.Path.cwd()))
    except BuildError as e:
        sys.exit(f"build failed: {e}")
