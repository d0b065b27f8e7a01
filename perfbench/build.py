"""Build file of the benchmark: compiles the program and the benchmark.

The program's sources (src/main/scala and jobs/) and the benchmark's own
(perfbench/src) are compiled with the Scala compiler that ships in the
Spark distribution's jar directory, into perfbench/out/classes. A digest
of every source file is kept beside the classes, so a second build of
unchanged sources does nothing.

    python3 perfbench/build.py        # prints the classes directory
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT = os.path.join(BENCH_DIR, "out")
CLASSES = os.path.join(OUT, "classes")
STAMP = os.path.join(OUT, "classes.sha256")
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"),
               os.path.join(ROOT, "jobs"),
               os.path.join(BENCH_DIR, "src")]


class BuildError(Exception):
    pass


def spark_jars():
    """The Spark distribution's jars: SPARK_HOME's, else those beside the
    first spark-submit on PATH that has them."""
    homes = [os.environ.get("SPARK_HOME", "")] + [
        os.path.dirname(d) for d in os.environ.get("PATH", "").split(os.pathsep)
        if os.path.exists(os.path.join(d, "spark-submit"))]
    for home in homes:
        jars = sorted(glob.glob(os.path.join(home, "jars", "*.jar")))
        if home and jars:
            return jars
    raise BuildError("no Spark distribution found (set SPARK_HOME)")


def sources():
    found = []
    for d in SOURCE_DIRS:
        found += glob.glob(os.path.join(d, "**", "*.scala"), recursive=True)
    if not any(f.startswith(SOURCE_DIRS[0]) for f in found):
        raise BuildError(f"no program sources under {SOURCE_DIRS[0]}")
    return sorted(found)


def source_digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build():
    """Compile if the sources changed; return (classes dir, source digest)."""
    files = sources()
    digest = source_digest(files)
    if os.path.isdir(CLASSES) and os.path.exists(STAMP):
        with open(STAMP) as fh:
            if fh.read().strip() == digest:
                return CLASSES, digest
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.makedirs(CLASSES)
    jars = spark_jars()
    compiler = [j for j in jars if os.path.basename(j).startswith(
        ("scala-compiler-", "scala-library-", "scala-reflect-"))]
    if len(compiler) != 3:
        raise BuildError("Scala compiler jars not found among the Spark jars")
    args_file = os.path.join(OUT, "scalac.args")
    with open(args_file, "w") as fh:
        fh.write("\n".join(["-nowarn", "-d", CLASSES,
                            "-classpath", os.pathsep.join(jars)] + files))
    proc = subprocess.run(
        ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData",
         f"-Djava.io.tmpdir={OUT}", "-cp", os.pathsep.join(compiler),
         "scala.tools.nsc.Main", "@" + args_file],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        shutil.rmtree(CLASSES, ignore_errors=True)
        raise BuildError("scalac failed:\n" + proc.stdout[-4000:])
    with open(STAMP, "w") as fh:
        fh.write(digest)
    return CLASSES, digest


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        print(e, file=sys.stderr)
        sys.exit(2)
